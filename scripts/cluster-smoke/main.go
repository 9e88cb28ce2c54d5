// Command cluster-smoke is the CI multi-process integration check: it
// builds the real redsserver and redsgateway binaries, boots two
// workers and one gateway as separate OS processes, submits jobs with
// distinct dataset keys through the gateway, and asserts that
//
//   - every job completes with a result,
//   - both workers received traffic (their /v1/healthz execution
//     counters are non-zero — consistent hashing spread the keys),
//   - the gateway's aggregated healthz sees both workers alive,
//   - a caller-supplied X-Request-Id is echoed on the job snapshot and
//     the job carries a per-stage trace (queue_wait + worker spans),
//   - all three processes serve a parseable /metrics exposition whose
//     every family follows the reds_<subsystem>_<name>_<unit>
//     convention and whose core series reflect the traffic just sent, and
//   - admission control holds: the whole fleet runs with -auth.tokens
//     and -internal.secret, tokenless and bad-token requests get 401, a
//     rate-limited client's burst draws a real 429 with Retry-After, and
//     the reds_admission_* counters reflect those verdicts.
//
// Run it from the repository root:
//
//	go run ./scripts/cluster-smoke
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"time"

	"github.com/reds-go/reds/scripts/internal/smoke"
)

const (
	worker1Addr = "127.0.0.1:18080"
	worker2Addr = "127.0.0.1:18081"
	gatewayAddr = "127.0.0.1:18090"
	jobCount    = 6

	// The fleet's shared internal secret and the smoke's bearer tokens:
	// "smoke" is the unthrottled submitter the main flow uses; "burst"
	// carries a tight per-token quota (rps=1, burst=2) so the overload
	// check can draw a genuine 429.
	internalSecret = "smoke-hush"
	smokeToken     = "smoke-token"
	burstToken     = "burst-token"
	tokenFileJSON  = `{"tokens":[
		{"token":"` + smokeToken + `","client":"smoke","roles":["submit","read"]},
		{"token":"` + burstToken + `","client":"burst","roles":["submit","read"],"rps":1,"burst":2}
	]}`
)

// client is the unthrottled submitter the main flow uses.
var client = smoke.Client{Gateway: "http://" + gatewayAddr, Token: smokeToken}

func main() {
	log.SetFlags(0)
	log.SetPrefix("cluster-smoke: ")
	if err := run(); err != nil {
		log.Fatalf("FAIL: %v", err)
	}
	log.Printf("PASS")
}

func run() error {
	// The whole fleet runs with admission on: bearer tokens on the public
	// API, a shared secret on the internal one. Store directories make
	// the reds_store_* series live too.
	fleet, err := smoke.NewFleet(tokenFileJSON, internalSecret)
	if err != nil {
		return err
	}
	defer fleet.Close()
	for _, args := range [][]string{
		{"redsserver", "-addr", worker1Addr, "-workers", "2", "-store.dir", fleet.Store("w1")},
		{"redsserver", "-addr", worker2Addr, "-workers", "2", "-store.dir", fleet.Store("w2")},
		{"redsgateway", "-addr", gatewayAddr,
			"-workers", fmt.Sprintf("http://%s,http://%s", worker1Addr, worker2Addr),
			"-health.interval", "500ms", "-store.dir", fleet.Store("gw")},
	} {
		if _, err := fleet.Start(args[0], args[1:]...); err != nil {
			return err
		}
	}

	for _, base := range []string{"http://" + worker1Addr, "http://" + worker2Addr, "http://" + gatewayAddr} {
		if err := smoke.WaitHealthy(base, 30*time.Second); err != nil {
			return err
		}
	}
	// The gateway's readiness gate: /v1/readyz stays 503 until the first
	// probe round completes and a worker is alive — exactly the startup
	// race this smoke used to work around by polling healthz.
	if err := smoke.WaitReady("http://"+gatewayAddr, 30*time.Second); err != nil {
		return err
	}
	// readyz needs one alive worker; the routing assertions below need
	// both, so let the prober finish marking the second one too.
	if err := client.WaitGatewaySeesWorkers(2, 30*time.Second); err != nil {
		return err
	}
	log.Printf("2 workers + gateway ready")

	// Distinct seeds → distinct shard keys → with two workers and six
	// keys, both sides of the ring get traffic with overwhelming
	// probability (the placement is deterministic, so this cannot flake
	// run to run).
	ids := make([]string, 0, jobCount)
	for seed := 1; seed <= jobCount; seed++ {
		id, err := client.Submit(fmt.Sprintf(`{"function":"morris","n":120,"l":2000,"seed":%d}`, seed), "")
		if err != nil {
			return fmt.Errorf("submitting job (seed %d): %w", seed, err)
		}
		ids = append(ids, id)
	}
	log.Printf("submitted %d jobs through the gateway", len(ids))

	for _, id := range ids {
		if err := client.WaitDone(id, 120*time.Second); err != nil {
			return err
		}
		var result struct {
			DatasetHash string `json:"dataset_hash"`
		}
		if err := client.GetJSON(fmt.Sprintf("http://%s/v1/jobs/%s/result", gatewayAddr, id), &result); err != nil {
			return fmt.Errorf("result of %s: %w", id, err)
		}
		if result.DatasetHash == "" {
			return fmt.Errorf("job %s: result has no dataset hash", id)
		}
	}
	log.Printf("all %d jobs done with results", len(ids))

	for _, base := range []string{"http://" + worker1Addr, "http://" + worker2Addr} {
		var hz struct {
			Executions int64 `json:"executions"`
		}
		if err := client.GetJSON(base+"/v1/healthz", &hz); err != nil {
			return fmt.Errorf("healthz of %s: %w", base, err)
		}
		if hz.Executions == 0 {
			return fmt.Errorf("worker %s received no executions — sharding routed everything elsewhere", base)
		}
		log.Printf("worker %s executed %d jobs", base, hz.Executions)
	}

	// A single probe round can transiently fail while the host is
	// saturated by the job burst, so allow the prober a few rounds to
	// settle before judging.
	if err := client.WaitGatewaySeesWorkers(2, 10*time.Second); err != nil {
		return err
	}

	if err := checkTrace(); err != nil {
		return err
	}
	if err := checkMetrics(); err != nil {
		return err
	}
	// Last: the admission checks submit extra jobs, which would skew
	// checkMetrics' exact dispatch counts if they ran earlier.
	return checkAdmission()
}

// checkAdmission asserts the fleet actually enforces its admission
// config: tokenless and bad-token requests are refused, an over-quota
// burst draws real 429s with Retry-After (while at least one submission
// is admitted at full fidelity), and the verdicts show up in the
// reds_admission_* counters.
func checkAdmission() error {
	for _, token := range []string{"", "not-a-real-token"} {
		status, body, _, err := smoke.Request("GET", fmt.Sprintf("http://%s/v1/jobs", gatewayAddr), "", "", token)
		if err != nil {
			return err
		}
		if status != http.StatusUnauthorized {
			return fmt.Errorf("GET /v1/jobs with token %q: got %d, want 401", token, status)
		}
		var env struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != "unauthorized" {
			return fmt.Errorf("401 envelope %s, want error code unauthorized", body)
		}
	}
	log.Printf("tokenless and bad-token requests refused with 401")

	// The burst client is capped at rps=1/burst=2 by its token file
	// entry: firing 6 submissions back to back must admit some and 429
	// the rest.
	admitted, rejected := []string{}, 0
	for i := 0; i < 6; i++ {
		status, body, hdr, err := smoke.Request("POST", fmt.Sprintf("http://%s/v1/jobs", gatewayAddr),
			`{"function":"morris","n":120,"l":2000,"seed":77}`, "", burstToken)
		if err != nil {
			return err
		}
		switch status {
		case http.StatusCreated:
			var out struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(body, &out); err != nil || out.ID == "" {
				return fmt.Errorf("undecodable submit response: %s", body)
			}
			admitted = append(admitted, out.ID)
		case http.StatusTooManyRequests:
			rejected++
			if hdr.Get("Retry-After") == "" {
				return fmt.Errorf("429 without a Retry-After header")
			}
			var env struct {
				Error struct {
					Code              string  `json:"code"`
					RetryAfterSeconds float64 `json:"retry_after_seconds"`
				} `json:"error"`
			}
			if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != "rate_limited" || env.Error.RetryAfterSeconds <= 0 {
				return fmt.Errorf("429 envelope %s, want rate_limited with retry_after_seconds > 0", body)
			}
		default:
			return fmt.Errorf("burst submit %d: unexpected status %d: %s", i, status, body)
		}
	}
	if len(admitted) == 0 || rejected == 0 {
		return fmt.Errorf("burst of 6: %d admitted, %d rejected — quota not biting", len(admitted), rejected)
	}
	log.Printf("over-quota burst: %d admitted, %d got 429 + Retry-After", len(admitted), rejected)

	// Admitted jobs still run at full fidelity.
	for _, id := range admitted {
		if err := client.WaitDone(id, 120*time.Second); err != nil {
			return err
		}
	}

	gw, err := smoke.ScrapeMetrics("http://" + gatewayAddr)
	if err != nil {
		return err
	}
	if gw.Series["reds_admission_rejected_total"] == 0 {
		return fmt.Errorf("gateway /metrics: no admission rejections recorded despite the 401s/429s above")
	}
	if gw.Series["reds_admission_allowed_total"] == 0 {
		return fmt.Errorf("gateway /metrics: no admitted requests recorded")
	}
	log.Printf("reds_admission_{allowed,rejected}_total both live on the gateway")
	return nil
}

// checkTrace submits one job with an explicit X-Request-Id and asserts
// the id survives the gateway -> worker round trip onto the job
// snapshot, together with a per-stage trace led by queue_wait.
func checkTrace() error {
	const rid = "cafef00dcafef00d"
	id, err := client.Submit(`{"function":"morris","n":120,"l":2000,"seed":99}`, rid)
	if err != nil {
		return fmt.Errorf("submitting traced job: %w", err)
	}
	if err := client.WaitDone(id, 120*time.Second); err != nil {
		return err
	}
	var snap struct {
		RequestID string `json:"request_id"`
		Timings   []struct {
			Stage   string  `json:"stage"`
			Seconds float64 `json:"seconds"`
		} `json:"timings"`
	}
	if err := client.GetJSON(fmt.Sprintf("http://%s/v1/jobs/%s", gatewayAddr, id), &snap); err != nil {
		return fmt.Errorf("traced job snapshot: %w", err)
	}
	if snap.RequestID != rid {
		return fmt.Errorf("job %s carries request_id %q, want the submitted %q", id, snap.RequestID, rid)
	}
	if len(snap.Timings) < 2 || snap.Timings[0].Stage != "queue_wait" {
		return fmt.Errorf("job %s timings %+v, want queue_wait followed by worker spans", id, snap.Timings)
	}
	workerSpans := 0
	for _, ts := range snap.Timings[1:] {
		if ts.Seconds < 0 {
			return fmt.Errorf("job %s span %q has negative duration", id, ts.Stage)
		}
		workerSpans++
	}
	log.Printf("traced job %s: request id echoed, %d worker spans", id, workerSpans)
	return nil
}

// checkMetrics scrapes /metrics on both workers and the gateway,
// validates every exposed family against the naming convention, and
// asserts the core series reflect the traffic this smoke test sent.
func checkMetrics() error {
	const totalJobs = jobCount + 1 // + the traced job

	for _, base := range []string{"http://" + worker1Addr, "http://" + worker2Addr} {
		m, err := smoke.ScrapeMetrics(base)
		if err != nil {
			return err
		}
		if m.Series["reds_exec_executions_total"] == 0 {
			return fmt.Errorf("%s /metrics: no executions recorded", base)
		}
		if m.Series["reds_exec_stage_seconds_count"] == 0 {
			return fmt.Errorf("%s /metrics: no stage spans observed", base)
		}
		if m.Series["reds_http_requests_total"] == 0 {
			return fmt.Errorf("%s /metrics: no http requests recorded", base)
		}
		log.Printf("%s /metrics: %d families, all names conformant", base, len(m.Families))
	}

	gw, err := smoke.ScrapeMetrics("http://" + gatewayAddr)
	if err != nil {
		return err
	}
	if got := gw.Series["reds_cluster_dispatches_total"]; got != totalJobs {
		return fmt.Errorf("gateway dispatched %v executions, want %d", got, totalJobs)
	}
	if got := gw.Series["reds_cluster_alive_workers"]; got != 2 {
		return fmt.Errorf("gateway sees %v alive workers on /metrics, want 2", got)
	}
	if got := gw.Series["reds_engine_jobs_finished_total"]; got != totalJobs {
		return fmt.Errorf("gateway finished %v jobs on /metrics, want %d", got, totalJobs)
	}
	if gw.Series["reds_store_wal_appends_total"] == 0 {
		return fmt.Errorf("gateway store recorded no WAL appends despite -store.dir")
	}
	log.Printf("gateway /metrics: %d families, core series consistent", len(gw.Families))
	return nil
}
