// Command bench is the end-to-end benchmark of the REDS service. It
// drives fixed, seeded job mixes through the system's three entry
// points — the engine in process, one server over loopback HTTP, and a
// gateway in front of two workers — and reports what a user sees
// (throughput, latency, CPU, memory, scenario quality) plus, in a traced
// run, where each job's time went layer by layer. Every result is
// checked; see README.md.
//
//	go run . -seed 1 [-out run.json] [-trace trace.json] [-gomaxprocs K]
//	go run . -workload paper_prim -seed 1 -seconds 20 -trace 0
//	go run . -compare 'base/*.json' 'head/*.json'
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

const (
	// defaultSeconds caps each workload's timed phase.
	defaultSeconds = 25
	// setupPasses is how many times a run boots and warms its harness.
	setupPasses = 3
	// watchdog ends a single-workload run that hangs.
	watchdog = 150 * time.Second
)

// runFile is the detailed record of a run: one or all workloads.
type runFile struct {
	Seed       int64                   `json:"seed"`
	Seconds    float64                 `json:"seconds"`
	GOMAXPROCS int                     `json:"gomaxprocs"`
	NumCPU     int                     `json:"num_cpu"`
	GoVersion  string                  `json:"go_version"`
	Workloads  map[string]*workloadRun `json:"workloads"`
}

// resultLine is the last line a single-workload run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workloadName := flag.String("workload", "", "run only this workload, in this process, and end with a one-line JSON result")
	seed := flag.Int64("seed", 1, "workload seed: every request derives from it")
	seconds := flag.Float64("seconds", defaultSeconds, "cap on each workload's timed phase, in seconds")
	traceArg := flag.String("trace", "0", `"0" measures end to end; "1" runs traced and reports per-layer metrics; any other value also writes the Chrome trace to that file`)
	out := flag.String("out", "", "write the run's metrics, errors and result digests as JSON to this file")
	gomaxprocs := flag.Int("gomaxprocs", 0, "GOMAXPROCS of the workload processes (0: the runtime default)")
	compare := flag.String("compare", "", "compare two sets of run files: -compare 'base/*.json' 'head/*.json'")
	flag.Parse()
	slog.SetDefault(quietLogger)

	var err error
	switch {
	case *compare != "":
		if flag.NArg() != 1 {
			err = errors.New("-compare takes the base pattern as its value and the head pattern as the one argument")
			break
		}
		var regressed bool
		if regressed, err = runCompare(*compare, flag.Arg(0), os.Stdout); err == nil && regressed {
			os.Exit(1)
		}
	case *workloadName != "":
		w, ok := workloadByName(*workloadName)
		if !ok {
			err = fmt.Errorf("unknown workload %q", *workloadName)
			break
		}
		if *gomaxprocs > 0 {
			runtime.GOMAXPROCS(*gomaxprocs)
		}
		time.AfterFunc(watchdog, func() {
			fmt.Fprintf(os.Stderr, "bench: %s did not finish within %v\n", w.name, watchdog)
			os.Exit(2)
		})
		traced, traceFile := parseTrace(*traceArg)
		err = runSingle(os.Stdout, runConfig{
			w: w, seed: *seed, seconds: *seconds, setups: setupPasses, traced: traced,
		}, traceFile, *out)
	default:
		err = runAll(*seed, *seconds, *traceArg, *out, *gomaxprocs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect reports a run that completed but failed a check; its
// result is already printed.
var errIncorrect = errors.New("correctness checks failed")

// parseTrace reads the -trace flag: "0" (or empty) is an untraced run,
// "1" a traced one, and anything else a traced run whose Chrome trace
// goes to that file.
func parseTrace(arg string) (traced bool, file string) {
	switch arg {
	case "", "0":
		return false, ""
	case "1":
		return true, ""
	}
	return true, arg
}

// runSingle runs one workload in this process — the entry that
// BENCHMARK.json's command calls, and the child process of runAll — and
// prints its metrics and,
// last, the one-line JSON result to stdout.
func runSingle(stdout io.Writer, cfg runConfig, traceFile, out string) error {
	name := cfg.w.name
	run, err := runWorkload(context.Background(), cfg)
	if err != nil {
		return err
	}
	for _, e := range run.Errors {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", name, e)
	}
	if traceFile != "" {
		if err := writeTrace(traceFile, run.trace); err != nil {
			return err
		}
	}
	if out != "" {
		if err := writeRunFile(out, newRunFile(cfg.seed, cfg.seconds, map[string]*workloadRun{name: run})); err != nil {
			return err
		}
	}
	specs, values := endToEnd, run.Metrics
	if cfg.traced {
		specs, values = perLayer, run.Layers
	}
	printMetrics(stdout, name, run)
	line := resultLine{Correct: run.Correct, Attempted: run.Attempted, Failed: run.Failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok {
			// A metric with no samples (every job failed) reads 0 in a run
			// that is already marked incorrect.
			v = metricValue{0, s.unit}
			line.Correct = false
		}
		line.Metrics[s.name] = v
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	fmt.Fprintln(stdout, string(raw))
	if !line.Correct {
		return errIncorrect
	}
	return nil
}

// printMetrics prints "workload metric value unit" for every metric the
// run has, end-to-end first.
func printMetrics(w io.Writer, name string, run *workloadRun) {
	for _, list := range [][]metricSpec{endToEnd, {failedRatio}} {
		for _, s := range list {
			if v, ok := run.Metrics[s.name]; ok {
				fmt.Fprintf(w, "%s %s %.6g %s\n", name, s.name, v.Value, v.Unit)
			}
		}
	}
	for _, list := range [][]metricSpec{perLayer, perLayerExtra} {
		for _, s := range list {
			if v, ok := run.Layers[s.name]; ok {
				fmt.Fprintf(w, "%s %s %.6g %s\n", name, s.name, v.Value, v.Unit)
			}
		}
	}
}

// runAll runs every workload in its own child process, so each starts
// with a clean heap and caches and reports its own peak RSS. With
// tracing on, each workload runs a second time traced.
func runAll(seed int64, seconds float64, traceArg, out string, gomaxprocs int) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating own binary: %w", err)
	}
	tmp, err := os.MkdirTemp("", "reds-bench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	traced, _ := parseTrace(traceArg)
	all := newRunFile(seed, seconds, map[string]*workloadRun{})
	var evs []traceEvent
	failed := false
	for pid, w := range workloads {
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-gomaxprocs", strconv.Itoa(gomaxprocs)}
		plain, rf, err := runChild(self, append(args, "-trace", "0"), filepath.Join(tmp, w.name+".json"))
		if err != nil {
			return err
		}
		all.GOMAXPROCS, all.NumCPU, all.GoVersion = rf.GOMAXPROCS, rf.NumCPU, rf.GoVersion
		failed = failed || !plain.Correct
		if traced {
			traceFile := filepath.Join(tmp, w.name+".trace.json")
			tracedRun, _, err := runChild(self, append(args, "-trace", traceFile), filepath.Join(tmp, w.name+".traced.json"))
			if err != nil {
				return err
			}
			failed = failed || !tracedRun.Correct
			plain.Layers = tracedRun.Layers
			if tracedRun.JobsPerS > 0 {
				ratio := plain.JobsPerS/tracedRun.JobsPerS - 1
				plain.Layers["trace.overhead_ratio"] = metricValue{ratio, "ratio"}
				fmt.Printf("%s trace.overhead_ratio %.6g ratio\n", w.name, ratio)
			}
			if evs, err = appendTrace(evs, traceFile, pid+1); err != nil {
				return err
			}
		}
		all.Workloads[w.name] = plain
	}
	if _, file := parseTrace(traceArg); file != "" {
		if err := writeTrace(file, evs); err != nil {
			return err
		}
	}
	if out != "" {
		if err := writeRunFile(out, all); err != nil {
			return err
		}
	}
	if failed {
		return errIncorrect
	}
	return nil
}

// runChild runs one workload in a child process, passes its metric lines
// through, and reads back its run file. A child that completes with
// failed checks is not an error here; its run says so.
func runChild(self string, args []string, out string) (*workloadRun, *runFile, error) {
	cmd := exec.Command(self, append(args, "-out", out)...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, nil, fmt.Errorf("starting %v: %w", args, err)
	}
	// Everything but the final JSON result line is for the reader.
	sc := bufio.NewScanner(stdout)
	var prev string
	for sc.Scan() {
		if prev != "" {
			fmt.Println(prev)
		}
		prev = sc.Text()
	}
	waitErr := cmd.Wait()
	rf, err := readRunFile(out)
	if err != nil {
		if waitErr != nil {
			return nil, nil, fmt.Errorf("%v: %w", args, waitErr)
		}
		return nil, nil, err
	}
	for _, run := range rf.Workloads {
		return run, rf, nil
	}
	return nil, nil, fmt.Errorf("%s holds no workload", out)
}

func appendTrace(evs []traceEvent, path string, pid int) ([]traceEvent, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ct chromeTrace
	if err := json.Unmarshal(raw, &ct); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	for _, e := range ct.TraceEvents {
		e.Pid = pid
		evs = append(evs, e)
	}
	return evs, nil
}

func newRunFile(seed int64, seconds float64, runs map[string]*workloadRun) *runFile {
	return &runFile{
		Seed:       seed,
		Seconds:    seconds,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Workloads:  runs,
	}
}

func writeRunFile(path string, rf *runFile) error {
	raw, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding run file: %w", err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing run file: %w", err)
	}
	return nil
}

func readRunFile(path string) (*runFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf runFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return &rf, nil
}
