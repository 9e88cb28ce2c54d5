package engine

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/reds-go/reds/internal/admission"
	"github.com/reds-go/reds/internal/dataset"
)

// apiCapsDataset builds an n-row labeled dataset for cap checks.
func apiCapsDataset(t *testing.T, n int) *dataset.Dataset {
	t.Helper()
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{float64(i) / float64(n), float64(n-i) / float64(n)}
		if i%3 == 0 {
			y[i] = 1
		}
	}
	return dataset.MustNew(x, y)
}

// apiTestTokens is the token file the full-stack tests load: alice may
// submit and read, bob may only read, carol may submit and read.
const apiTestTokens = `{"tokens":[
	{"token":"tok-alice","client":"alice","roles":["submit","read"]},
	{"token":"tok-bob","client":"bob","roles":["read"]},
	{"token":"tok-carol","client":"carol","roles":["submit","read"]}
]}`

// startAdmissionServer serves the real /v1 API behind the real admission
// middleware — the same stack cmd/redsserver mounts (minus telemetry
// instrumentation, which is orthogonal here).
func startAdmissionServer(t *testing.T, engOpts Options, admOpts admission.Options, tokensJSON string) (*httptest.Server, *Engine) {
	t.Helper()
	if engOpts.Workers == 0 {
		engOpts.Workers = 2
	}
	e, err := New(engOpts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if tokensJSON != "" {
		path := filepath.Join(t.TempDir(), "tokens.json")
		if err := os.WriteFile(path, []byte(tokensJSON), 0o600); err != nil {
			t.Fatalf("writing token file: %v", err)
		}
		tokens, err := admission.LoadTokens(path)
		if err != nil {
			t.Fatalf("LoadTokens: %v", err)
		}
		admOpts.Tokens = tokens
	}
	ctrl := admission.New(admOpts)
	srv := httptest.NewServer(ctrl.Middleware(NewHandler(e, WithAdmission(ctrl))))
	t.Cleanup(func() {
		srv.Close()
		e.Close()
	})
	return srv, e
}

// authDo sends one request with an optional bearer token and returns
// the closed response (headers/status usable) plus the decoded body.
func authDo(t *testing.T, method, url, token, body string) (*http.Response, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("building %s %s: %v", method, url, err)
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	out := map[string]any{}
	if len(raw) > 0 {
		_ = json.Unmarshal(raw, &out)
	}
	return resp, out
}

// envelopeCode digs the error code out of the standard envelope.
func envelopeCode(body map[string]any) string {
	env, _ := body["error"].(map[string]any)
	code, _ := env["code"].(string)
	return code
}

// TestAPIFullStackAuthAndCaps walks the rejection matrix through the
// complete middleware + handler stack: 401 (no/bad token), 403 (missing
// role), 400 limit_exceeded (caps, deadline ceiling), 413 (body cap).
func TestAPIFullStackAuthAndCaps(t *testing.T) {
	srv, _ := startAdmissionServer(t, Options{}, admission.Options{
		Caps: admission.Caps{
			MaxL:         5000,
			MaxN:         300,
			MaxBodyBytes: 4096,
			MaxRuntime:   time.Minute,
		},
	}, apiTestTokens)

	okJob := `{"function":"morris","n":150,"l":2000,"seed":4}`
	bigBody := `{"csv":"` + strings.Repeat("a,", 4096) + `"}`
	cases := []struct {
		name       string
		method     string
		path       string
		token      string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"no token", http.MethodGet, "/v1/jobs", "", "", http.StatusUnauthorized, "unauthorized"},
		{"bad token", http.MethodGet, "/v1/jobs", "tok-nope", "", http.StatusUnauthorized, "unauthorized"},
		{"read ok", http.MethodGet, "/v1/jobs", "tok-bob", "", http.StatusOK, ""},
		{"healthz open", http.MethodGet, "/v1/healthz", "", "", http.StatusOK, ""},
		{"submit without role", http.MethodPost, "/v1/jobs", "tok-bob", okJob, http.StatusForbidden, "forbidden"},
		{"cancel without role", http.MethodDelete, "/v1/jobs/job-1", "tok-bob", "", http.StatusForbidden, "forbidden"},
		{"submit ok", http.MethodPost, "/v1/jobs", "tok-alice", okJob, http.StatusCreated, ""},
		{"l over cap", http.MethodPost, "/v1/jobs", "tok-alice",
			`{"function":"morris","n":150,"l":50000}`, http.StatusBadRequest, "limit_exceeded"},
		{"n over cap", http.MethodPost, "/v1/jobs", "tok-alice",
			`{"function":"morris","n":400,"l":2000}`, http.StatusBadRequest, "limit_exceeded"},
		{"default n over cap", http.MethodPost, "/v1/jobs", "tok-alice",
			`{"function":"morris","l":2000}`, http.StatusBadRequest, "limit_exceeded"},
		// train_bins is no longer a request field: unknown, so 400.
		{"train_bins over cap", http.MethodPost, "/v1/jobs", "tok-alice",
			`{"function":"morris","n":150,"l":2000,"train_mode":"binned","train_bins":256}`, http.StatusBadRequest, "bad_request"},
		{"deadline over ceiling", http.MethodPost, "/v1/jobs", "tok-alice",
			`{"function":"morris","n":150,"l":2000,"deadline_seconds":3600}`, http.StatusBadRequest, "limit_exceeded"},
		{"negative deadline", http.MethodPost, "/v1/jobs", "tok-alice",
			`{"function":"morris","n":150,"l":2000,"deadline_seconds":-1}`, http.StatusBadRequest, "bad_request"},
		{"body over cap", http.MethodPost, "/v1/jobs", "tok-alice", bigBody, http.StatusRequestEntityTooLarge, "body_too_large"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := authDo(t, tc.method, srv.URL+tc.path, tc.token, tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %v)", resp.StatusCode, tc.wantStatus, body)
			}
			if tc.wantCode != "" {
				if got := envelopeCode(body); got != tc.wantCode {
					t.Fatalf("error code = %q, want %q (body %v)", got, tc.wantCode, body)
				}
			}
		})
	}
}

// TestCheckCaps covers the caps the HTTP table cannot hit cleanly: the
// variant-grid bound, the dataset row bound, and the all-zero
// (unlimited) configuration.
func TestCheckCaps(t *testing.T) {
	grid := Request{Function: "morris", Metamodels: []string{"rf", "xgb"}, SD: []string{"prim", "best"}}
	if err := checkCaps(admission.Caps{MaxVariants: 3}, grid); err == nil {
		t.Errorf("2x2 grid passed a 3-variant cap")
	}
	if err := checkCaps(admission.Caps{MaxVariants: 4}, grid); err != nil {
		t.Errorf("2x2 grid rejected by a 4-variant cap: %v", err)
	}
	ds := Request{Dataset: apiCapsDataset(t, 500)}
	if err := checkCaps(admission.Caps{MaxN: 300}, ds); err == nil {
		t.Errorf("500-row dataset passed a 300-row cap")
	}
	if err := checkCaps(admission.Caps{}, Request{Function: "morris", N: 1 << 20, L: 1 << 30}); err != nil {
		t.Errorf("zero caps rejected a request: %v", err)
	}
}

// TestAPIQueueFullReturns429 fills a one-deep queue and checks the
// overflow submission gets 429 + Retry-After, not a generic 400 — even
// without an admission controller configured.
func TestAPIQueueFullReturns429(t *testing.T) {
	e, err := New(Options{Workers: 1, QueueSize: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv := httptest.NewServer(NewHandler(e))
	t.Cleanup(func() {
		srv.Close()
		e.Close()
	})

	long := `{"function":"hart3","n":200,"l":3000000,"seed":1}`
	for i := 0; i < 2; i++ { // one running + one queued
		resp, body := authDo(t, http.MethodPost, srv.URL+"/v1/jobs", "", long)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit %d = %d: %v", i, resp.StatusCode, body)
		}
	}
	resp, body := authDo(t, http.MethodPost, srv.URL+"/v1/jobs", "", long)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d, want 429 (body %v)", resp.StatusCode, body)
	}
	if got := envelopeCode(body); got != "queue_full" {
		t.Errorf("error code = %q, want queue_full", got)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("429 without Retry-After header")
	}
	env, _ := body["error"].(map[string]any)
	if ra, _ := env["retry_after_seconds"].(float64); ra <= 0 {
		t.Errorf("retry_after_seconds = %v, want > 0", env["retry_after_seconds"])
	}
}

// normalizeAPIResult zeroes wall-clock and cache-temperature fields so
// two runs of one request compare byte-for-byte.
func normalizeAPIResult(t *testing.T, res Result) string {
	t.Helper()
	res.ElapsedSeconds = 0
	res.Best.CacheHit = false
	res.Best.LabelCacheHit = false
	res.Variants = append([]VariantResult(nil), res.Variants...)
	for i := range res.Variants {
		res.Variants[i].CacheHit = false
		res.Variants[i].LabelCacheHit = false
	}
	raw, err := json.Marshal(&res)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return string(raw)
}

// TestAPIOverloadBurst is the throttling acceptance test: a burst of 20
// submissions against rps=2/burst=2/inflight=1 yields a mix of 201s and
// 429s (each 429 carrying Retry-After), and every admitted job's result
// is byte-identical to the same request on an unthrottled server.
func TestAPIOverloadBurst(t *testing.T) {
	srv, _ := startAdmissionServer(t, Options{}, admission.Options{
		RPS:         2,
		Burst:       2,
		MaxInFlight: 1,
	}, apiTestTokens)

	job := `{"function":"morris","n":150,"l":2000,"seed":4}`
	var admitted []string
	rejected := 0
	for i := 0; i < 20; i++ {
		resp, body := authDo(t, http.MethodPost, srv.URL+"/v1/jobs", "tok-alice", job)
		switch resp.StatusCode {
		case http.StatusCreated:
			admitted = append(admitted, body["id"].(string))
		case http.StatusTooManyRequests:
			rejected++
			if code := envelopeCode(body); code != "rate_limited" && code != "inflight_limit" {
				t.Fatalf("429 with code %q, want rate_limited or inflight_limit", code)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Fatalf("429 without Retry-After header")
			}
			env, _ := body["error"].(map[string]any)
			if ra, _ := env["retry_after_seconds"].(float64); ra <= 0 {
				t.Fatalf("retry_after_seconds = %v, want > 0", env["retry_after_seconds"])
			}
		default:
			t.Fatalf("submit %d = %d: %v", i, resp.StatusCode, body)
		}
	}
	if len(admitted) == 0 {
		t.Fatalf("no submissions admitted out of 20")
	}
	if rejected < 10 {
		t.Fatalf("only %d/20 submissions throttled; quota not biting", rejected)
	}
	t.Logf("burst of 20: %d admitted, %d throttled", len(admitted), rejected)

	// Admitted jobs must be full-fidelity: identical to an unthrottled run.
	plain, _ := startTestServer(t)
	resp, body := authDo(t, http.MethodPost, plain.URL+"/v1/jobs", "", job)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("unthrottled submit = %d: %v", resp.StatusCode, body)
	}
	want := normalizeAPIResult(t, waitAPIResult(t, plain.URL, "", body["id"].(string)))
	for _, id := range admitted {
		got := normalizeAPIResult(t, waitAPIResult(t, srv.URL, "tok-alice", id))
		if got != want {
			t.Fatalf("throttled job %s result differs from unthrottled run:\n got %s\nwant %s", id, got, want)
		}
	}
}

// waitAPIResult polls one job to completion and returns its result.
func waitAPIResult(t *testing.T, base, token, id string) Result {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, body := authDo(t, http.MethodGet, base+"/v1/jobs/"+id, token, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll %s = %d: %v", id, resp.StatusCode, body)
		}
		if s, _ := body["status"].(string); Status(s).Terminal() {
			if Status(s) != StatusDone {
				t.Fatalf("job %s finished %s: %v", id, s, body["error"])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish", id)
		}
		time.Sleep(10 * time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+id+"/result", nil)
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("result %s: %v", id, err)
	}
	defer resp.Body.Close()
	var res Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatalf("decoding result %s: %v", id, err)
	}
	return res
}

// TestAPIDeadlineFailsJobAndFreesSlot is the deadline acceptance test: a
// paper-scale job with deadline_seconds=1 must fail with a deadline
// reason well inside 5 seconds, and its in-flight slot must free
// immediately so the next submission is admitted.
func TestAPIDeadlineFailsJobAndFreesSlot(t *testing.T) {
	srv, _ := startAdmissionServer(t, Options{Workers: 1}, admission.Options{
		MaxInFlight: 1,
		Caps:        admission.Caps{MaxRuntime: 30 * time.Second},
	}, "")

	resp, body := authDo(t, http.MethodPost, srv.URL+"/v1/jobs", "",
		`{"function":"hart3","n":200,"l":3000000,"seed":1,"deadline_seconds":1}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit = %d: %v", resp.StatusCode, body)
	}
	id := body["id"].(string)

	start := time.Now()
	window := 5 * time.Second * raceDetectorSlowdown
	deadline := start.Add(window)
	for {
		_, snap := authDo(t, http.MethodGet, srv.URL+"/v1/jobs/"+id, "", "")
		if s, _ := snap["status"].(string); Status(s).Terminal() {
			if Status(s) != StatusFailed {
				t.Fatalf("deadline job finished %s, want failed: %v", s, snap)
			}
			reason, _ := snap["error"].(string)
			if !strings.Contains(reason, "deadline") {
				t.Fatalf("failure reason %q does not mention the deadline", reason)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("deadline job still running after %v", window)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Logf("deadline job failed after %v", time.Since(start))

	// The slot must be free the moment the job is terminal: with
	// inflight=1, this submission 429s if release leaked.
	resp, body = authDo(t, http.MethodPost, srv.URL+"/v1/jobs", "",
		`{"function":"morris","n":150,"l":2000,"seed":4}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("post-deadline submit = %d, want 201 (slot leaked?): %v", resp.StatusCode, body)
	}
	waitAPIResult(t, srv.URL, "", body["id"].(string))
}

// TestAPIClientFilter checks that job ownership flows from the bearer
// token into snapshots and that ?client= narrows the listing.
func TestAPIClientFilter(t *testing.T) {
	srv, _ := startAdmissionServer(t, Options{}, admission.Options{}, apiTestTokens)

	job := `{"function":"morris","n":150,"l":2000,"seed":4}`
	for _, token := range []string{"tok-alice", "tok-alice", "tok-carol"} {
		if resp, body := authDo(t, http.MethodPost, srv.URL+"/v1/jobs", token, job); resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit as %s = %d: %v", token, resp.StatusCode, body)
		}
	}
	count := func(query string) int {
		_, body := authDo(t, http.MethodGet, srv.URL+"/v1/jobs"+query, "tok-bob", "")
		jobs, _ := body["jobs"].([]any)
		return len(jobs)
	}
	if n := count(""); n != 3 {
		t.Errorf("unfiltered listing has %d jobs, want 3", n)
	}
	if n := count("?client=alice"); n != 2 {
		t.Errorf("alice's listing has %d jobs, want 2", n)
	}
	if n := count("?client=carol"); n != 1 {
		t.Errorf("carol's listing has %d jobs, want 1", n)
	}
	if n := count("?client=mallory"); n != 0 {
		t.Errorf("mallory's listing has %d jobs, want 0", n)
	}
	_, body := authDo(t, http.MethodGet, srv.URL+"/v1/jobs?client=carol", "tok-bob", "")
	jobs, _ := body["jobs"].([]any)
	if len(jobs) == 1 {
		snap, _ := jobs[0].(map[string]any)
		if snap["client"] != "carol" {
			t.Errorf("snapshot client = %v, want carol", snap["client"])
		}
	}
}
