// Command chaos-smoke is the CI fault-injection check: it boots a real
// three-worker fleet with faults armed and asserts the robustness
// machinery holds the system together:
//
//   - the gateway's /v1/readyz gates startup (503 until the prober has
//     seen an alive worker),
//   - a worker is registered at runtime through the worker-admin API and
//     receives traffic,
//   - the worker owning a multi-variant job is killed mid-execution (the
//     exec.exit-after fault point), and the job still completes — resumed
//     from its forwarded checkpoint with no second training, relabeling
//     only for the variants it re-runs
//     (reds_engine_checkpoint_resumes_total ≥ 1 on the survivors); the
//     time from the owner's death to the job's completion is logged,
//   - a dropped status-poll connection (exec.status.drop) is absorbed by
//     the retry/backoff discipline (reds_cluster_retry_attempts_total),
//   - the dead worker is deregistered and a replacement re-registered,
//     after which the fleet runs a full batch of jobs to completion.
//
// The whole fleet runs with admission enabled — bearer tokens, per-client
// quotas and the internal shared secret — so every chaos scenario above
// also proves the failover/checkpoint machinery works through the
// authenticated paths (the worker-admin calls authenticate with the
// token's admin role; dispatches carry the secret).
//
// Run it from the repository root:
//
//	go run ./scripts/chaos-smoke
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"os/exec"
	"strings"
	"time"

	"github.com/reds-go/reds/internal/cluster"
	"github.com/reds-go/reds/internal/engine"
	"github.com/reds-go/reds/scripts/internal/smoke"
)

const (
	worker1Addr = "127.0.0.1:19080"
	worker2Addr = "127.0.0.1:19081"
	worker3Addr = "127.0.0.1:19082"
	gatewayAddr = "127.0.0.1:19090"

	// Admission config for the fleet: one token with submit+read+admin
	// (the script drives the worker-admin API too) and a shared internal
	// secret. The quota is generous — this smoke stresses fault paths,
	// not throttling (cluster-smoke owns the 429 assertions).
	internalSecret = "chaos-hush"
	chaosToken     = "chaos-token"
	tokenFileJSON  = `{"tokens":[{"token":"` + chaosToken + `","client":"chaos","roles":["submit","read","admin"]}]}`
)

var (
	worker1URL = "http://" + worker1Addr
	worker2URL = "http://" + worker2Addr
	worker3URL = "http://" + worker3Addr
	gatewayURL = "http://" + gatewayAddr

	client = smoke.Client{Gateway: gatewayURL, Token: chaosToken}
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("chaos-smoke: ")
	if err := run(); err != nil {
		log.Fatalf("FAIL: %v", err)
	}
	log.Printf("PASS")
}

func run() error {
	fleet, err := smoke.NewFleet(tokenFileJSON, internalSecret)
	if err != nil {
		return err
	}
	defer fleet.Close()
	worker := func(addr, storeDir, faults string) (*exec.Cmd, error) {
		args := []string{"-addr", addr, "-workers", "2", "-store.dir", fleet.Store(storeDir)}
		if faults != "" {
			args = append(args, "-faults", faults)
		}
		return fleet.Start("redsserver", args...)
	}

	// w1 carries the kill fault: once any discover span closes, the
	// process exits — after a delay long enough for the gateway's next
	// status GET (one per 150ms) to fetch the checkpoint, like a crash
	// that strikes between polls. w2
	// drops one status-poll connection to exercise the retry budget. w3
	// starts clean and outside the gateway's initial worker set: it
	// joins through the admin API.
	w1, err := worker(worker1Addr, "w1", "exec.exit-after=discover/,exec.exit.delay=1s")
	if err != nil {
		return err
	}
	if _, err := worker(worker2Addr, "w2", "exec.status.drop=1"); err != nil {
		return err
	}
	if _, err := worker(worker3Addr, "w3", ""); err != nil {
		return err
	}
	if _, err := fleet.Start("redsgateway", "-addr", gatewayAddr,
		"-workers", worker1URL+","+worker2URL,
		"-health.interval", "500ms",
		"-store.dir", fleet.Store("gw"),
		"-quota.rps", "50", "-quota.burst", "50"); err != nil {
		return err
	}

	for _, base := range []string{worker1URL, worker2URL, worker3URL, gatewayURL} {
		if err := smoke.WaitHealthy(base, 30*time.Second); err != nil {
			return err
		}
	}
	if err := smoke.WaitReady(gatewayURL, 30*time.Second); err != nil {
		return err
	}
	if err := client.WaitGatewaySeesWorkers(2, 30*time.Second); err != nil {
		return err
	}
	changes0, err := ringChanges()
	if err != nil {
		return err
	}
	log.Printf("fleet up: 2 registered workers ready, ring changes=%d", changes0)

	// Elastic join: w3 registers at runtime.
	if err := adminWorker("POST", worker3URL); err != nil {
		return fmt.Errorf("registering w3: %w", err)
	}
	if err := client.WaitGatewaySeesWorkers(3, 30*time.Second); err != nil {
		return err
	}
	if got, err := ringChanges(); err != nil || got != changes0+1 {
		return fmt.Errorf("ring changes after registration = %d (err %v), want %d", got, err, changes0+1)
	}
	log.Printf("w3 registered through the admin API")

	// The chaos job: three SD variants over one metamodel family, with a
	// seed chosen (against the same consistent-hash ring the gateway
	// runs) so the job lands on the fault-armed w1. The first finished
	// discover variant pulls the trigger; the forwarded checkpoint must
	// carry the failover. L=6·10^4 keeps the variants after the first
	// running past the fault's 1s exit delay (bumping takes about 2.3s
	// on 2 cores), so w1 dies mid-job rather than after finishing it.
	seed := ownedSeed(worker1URL)
	log.Printf("chaos job seed %d routes to w1", seed)
	chaosID, err := client.Submit(fmt.Sprintf(
		`{"function":"morris","n":120,"l":60000,"seed":%d,"sd":["prim","bumping","bi"]}`, seed), "")
	if err != nil {
		return fmt.Errorf("submitting chaos job: %w", err)
	}

	// The fault must actually kill w1 (exit code 3, not a crash).
	w1exit := make(chan error, 1)
	go func() { w1exit <- w1.Wait() }()
	var died time.Time
	select {
	case <-w1exit:
		died = time.Now()
		if code := w1.ProcessState.ExitCode(); code != 3 {
			return fmt.Errorf("w1 exited with code %d, want the fault's exit code 3", code)
		}
		log.Printf("w1 killed itself mid-job (fault fired)")
	case <-time.After(120 * time.Second):
		return fmt.Errorf("exec.exit-after fault never fired on w1")
	}

	if err := client.WaitDone(chaosID, 180*time.Second); err != nil {
		return fmt.Errorf("chaos job after worker death: %w", err)
	}
	if err := checkChaosTrace(chaosID, died); err != nil {
		return err
	}
	resumes, err := sumSeries("reds_engine_checkpoint_resumes_total", worker2URL, worker3URL)
	if err != nil {
		return err
	}
	if resumes < 1 {
		return fmt.Errorf("no survivor resumed from a checkpoint (reds_engine_checkpoint_resumes_total = %v)", resumes)
	}
	log.Printf("chaos job completed after failover, %v checkpoint resume(s) on survivors", resumes)

	// Elastic repair: deregister the corpse, boot and re-register a
	// replacement on the same address and store.
	if err := adminWorker("DELETE", worker1URL); err != nil {
		return fmt.Errorf("deregistering dead w1: %w", err)
	}
	if err := client.WaitGatewaySeesWorkers(2, 30*time.Second); err != nil {
		return err
	}
	if _, err := worker(worker1Addr, "w1", ""); err != nil {
		return fmt.Errorf("restarting w1: %w", err)
	}
	if err := smoke.WaitHealthy(worker1URL, 30*time.Second); err != nil {
		return err
	}
	if err := adminWorker("POST", worker1URL); err != nil {
		return fmt.Errorf("re-registering w1: %w", err)
	}
	if err := client.WaitGatewaySeesWorkers(3, 30*time.Second); err != nil {
		return err
	}
	if got, err := ringChanges(); err != nil || got != changes0+3 {
		return fmt.Errorf("ring changes after dereg+rereg = %d (err %v), want %d", got, err, changes0+3)
	}
	log.Printf("dead w1 deregistered, replacement re-registered")

	// The repaired fleet absorbs a full batch — including whatever keys
	// the dead worker used to own, and w2's one dropped poll connection.
	ids := make([]string, 0, 6)
	for s := 1; s <= 6; s++ {
		id, err := client.Submit(fmt.Sprintf(`{"function":"morris","n":120,"l":2000,"seed":%d}`, s), "")
		if err != nil {
			return fmt.Errorf("submitting batch job (seed %d): %w", s, err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if err := client.WaitDone(id, 120*time.Second); err != nil {
			return err
		}
	}
	log.Printf("all %d batch jobs done on the repaired fleet", len(ids))

	// The fault-tolerance machinery left its fingerprints on /metrics.
	retries, err := sumSeries("reds_cluster_retry_attempts_total", gatewayURL)
	if err != nil {
		return err
	}
	if retries < 1 {
		return fmt.Errorf("no retries recorded despite the death and the dropped connection")
	}
	trips, err := sumSeries("reds_cluster_breaker_transitions_total", gatewayURL)
	if err != nil {
		return err
	}
	if trips < 1 {
		return fmt.Errorf("the dead worker never tripped its circuit breaker")
	}
	log.Printf("telemetry consistent: %v retries, %v breaker transitions", retries, trips)
	return nil
}

// ownedSeed finds a seed whose request routes to the target worker on
// the same 128-vnode consistent-hash ring the gateway runs.
func ownedSeed(target string) int64 {
	ring := cluster.NewRing(128, worker1URL, worker2URL, worker3URL)
	for seed := int64(1); seed <= 10000; seed++ {
		req := engine.Request{Function: "morris", N: 120, Seed: seed}
		if node, ok := ring.Lookup(req.ShardKey()); ok && node == target {
			return seed
		}
	}
	panic("no seed in 1..10000 routes to " + target) // 3 workers: unreachable
}

// checkChaosTrace asserts the resumed job's trace carries no second
// training: the stitched trace is the forwarded checkpoint's spans plus
// the successor's re-runs, so train spans stay within the one-per-variant
// bound, label spans within one per variant per execution that ran it
// (the successor relabels from the checkpointed model), and each
// variant's discover appears exactly once. It logs the time from the
// owner's death to the job's completion.
func checkChaosTrace(id string, died time.Time) error {
	var snap struct {
		FinishedAt time.Time `json:"finished_at"`
		Timings    []struct {
			Stage string `json:"stage"`
		} `json:"timings"`
	}
	if err := client.GetJSON(fmt.Sprintf("%s/v1/jobs/%s", gatewayURL, id), &snap); err != nil {
		return fmt.Errorf("chaos job snapshot: %w", err)
	}
	var res struct {
		Variants []struct {
			Resumed bool `json:"resumed"`
		} `json:"variants"`
	}
	if err := client.GetJSON(fmt.Sprintf("%s/v1/jobs/%s/result", gatewayURL, id), &res); err != nil {
		return fmt.Errorf("chaos job result: %w", err)
	}
	rerun := 0
	for _, vr := range res.Variants {
		if !vr.Resumed {
			rerun++
		}
	}
	trains, labels, discovers := 0, 0, 0
	for _, ts := range snap.Timings {
		switch {
		case strings.HasPrefix(ts.Stage, "train/"):
			trains++
		case strings.HasPrefix(ts.Stage, "label/"):
			labels++
		case strings.HasPrefix(ts.Stage, "discover/"):
			discovers++
		}
	}
	if trains < 1 || trains > 3 || labels > 3+rerun || discovers != 3 {
		return fmt.Errorf("chaos job trace has %d train / %d label / %d discover spans, want ≤3/≤%d/3 — duplicated work after failover: %+v",
			trains, labels, discovers, 3+rerun, snap.Timings)
	}
	log.Printf("chaos job trace whole: %d train / %d label / %d discover spans, %d variant(s) re-run", trains, labels, discovers, rerun)
	log.Printf("failover: owner death to job done in %.3fs", snap.FinishedAt.Sub(died).Seconds())
	return nil
}

// adminWorker drives the gateway's worker-admin API, authenticating
// with the chaos token's admin role.
func adminWorker(method, workerURL string) error {
	body, _ := json.Marshal(map[string]string{"url": workerURL})
	status, raw, _, err := smoke.Request(method, gatewayURL+"/internal/v1/workers", string(body), "", chaosToken)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s /internal/v1/workers (%s): %d: %.200s", method, workerURL, status, raw)
	}
	return nil
}

// ringChanges reads the ring mutation counter off the gateway healthz.
func ringChanges() (int, error) {
	var hz struct {
		Ring struct {
			Changes int `json:"changes"`
		} `json:"ring"`
	}
	if err := client.GetJSON(gatewayURL+"/v1/healthz", &hz); err != nil {
		return 0, err
	}
	return hz.Ring.Changes, nil
}

// sumSeries scrapes /metrics on the given bases and sums every series of
// the named family (across label sets and bases).
func sumSeries(family string, bases ...string) (float64, error) {
	var total float64
	for _, base := range bases {
		m, err := smoke.ScrapeMetrics(base)
		if err != nil {
			return 0, err
		}
		total += m.Series[family]
	}
	return total, nil
}
