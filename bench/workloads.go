package main

import (
	"fmt"
	"hash/fnv"

	"github.com/reds-go/reds/internal/engine"
)

// harnessKind names the entry point a workload drives.
type harnessKind int

const (
	// inProcess is engine.New over a LocalExecutor; completion comes from
	// SubmitOptions.OnDone.
	inProcess harnessKind = iota
	// oneServer is the redsserver handler stack over loopback HTTP.
	oneServer
	// gatewayTwoWorkers is a gateway engine whose executor is a
	// cluster.Dispatcher over two redsserver-style workers, all over
	// loopback HTTP.
	gatewayTwoWorkers
)

func (k harnessKind) String() string {
	switch k {
	case inProcess:
		return "in-process"
	case oneServer:
		return "http-server"
	default:
		return "gateway+2-workers"
	}
}

// workload is one fixed, seeded job mix. Both sides of a comparison run
// the same job sequence, so their result digests line up job by job.
type workload struct {
	name    string
	why     string
	harness harnessKind
	// clients run closed loops: each submits its next job only after it
	// has fetched the previous job's result.
	clients int
	// jobs is the number of timed jobs.
	jobs int
	// warmup returns the requests run before timing; they count in
	// setup_s.
	warmup func(seed int64) []engine.Request
	// request returns the request of timed job i.
	request func(seed int64, i int) engine.Request
}

// workloads is the benchmark's job mix. Each workload stresses a
// different layer; see README.md for what each should move.
var workloads = []workload{
	freshSeeds(workload{
		name:    "paper_prim",
		why:     "paper REDS-PRIM setup: rf labels 1e5 points per job, every cache misses; no tuning, fast path, HTTP or cluster code",
		harness: inProcess,
		clients: 1,
		jobs:    28,
	}, paperPrim),
	freshSeeds(workload{
		name:    "tuned_train",
		why:     "tuned rf+xgb fold x grid training is most of each job; a training change shows here and nowhere else",
		harness: inProcess,
		clients: 1,
		jobs:    28,
	}, tunedTrain),
	freshSeeds(workload{
		name:    "fast_paths",
		why:     "binned tuned xgb with distilled labeling over one HTTP server; the only workload on the binned and distilled fast paths",
		harness: oneServer,
		clients: 1,
		jobs:    22,
	}, fastPaths),
	{
		name:    "warm_gateway",
		why:     "8 repeated requests through gateway and 2 workers: every job hits the model and label caches, so dispatch, polling and persistence dominate",
		harness: gatewayTwoWorkers,
		clients: 2,
		jobs:    48,
		warmup:  warmSet,
		request: func(seed int64, i int) engine.Request { return warmSet(seed)[i%warmSetSize] },
	},
}

// freshSeeds makes every job of w a cold one: job i runs build with its
// own seed, and the warm-up is one more job (i = -1) that no timed job
// repeats.
func freshSeeds(w workload, build func(seed int64) engine.Request) workload {
	w.request = func(seed int64, i int) engine.Request { return build(jobSeed(seed, w.name, i)) }
	w.warmup = func(seed int64) []engine.Request { return []engine.Request{w.request(seed, -1)} }
	return w
}

// warmSetSize is the number of distinct requests warm_gateway cycles
// through.
const warmSetSize = 8

func paperPrim(seed int64) engine.Request {
	return engine.Request{
		Function:   "borehole",
		N:          400,
		L:          100_000,
		Metamodels: []string{"rf"},
		SD:         []string{"prim"},
		Seed:       seed,
	}
}

func tunedTrain(seed int64) engine.Request {
	return engine.Request{
		Function:   "wingweight",
		N:          1600,
		L:          10_000,
		Metamodels: []string{"rf", "xgb"},
		SD:         []string{"prim"},
		Tuned:      true,
		Seed:       seed,
	}
}

// fastPaths uses no rf: binned rf training is not deterministic above
// one core, so its digests could not be compared.
func fastPaths(seed int64) engine.Request {
	return engine.Request{
		Function:    "borehole",
		N:           800,
		L:           100_000,
		Metamodels:  []string{"xgb"},
		SD:          []string{"prim", "bi"},
		Tuned:       true,
		TrainMode:   "binned",
		LabelKernel: "distilled",
		Seed:        seed,
	}
}

func warmSet(seed int64) []engine.Request {
	out := make([]engine.Request, warmSetSize)
	for k := range out {
		out[k] = engine.Request{
			Function:   "morris",
			N:          300,
			L:          20_000,
			Metamodels: []string{"rf"},
			SD:         []string{"prim"},
			Seed:       jobSeed(seed, "warm_gateway", k),
		}
	}
	return out
}

// jobSeed derives a job's request seed from the run seed, the workload
// and the job index. It is never 0, which a request reads as "default".
func jobSeed(seed int64, workload string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", seed, workload, i)
	return int64(h.Sum64()>>2) + 1
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
