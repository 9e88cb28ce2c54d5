package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/reds-go/reds/internal/sample"
)

func startTestServer(t *testing.T) (*httptest.Server, *Engine) {
	t.Helper()
	e, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv := httptest.NewServer(NewHandler(e))
	t.Cleanup(func() {
		srv.Close()
		e.Close()
	})
	return srv, e
}

func postJSON(t *testing.T, url string, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, out
}

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if err := json.Unmarshal(raw, into); err != nil {
		t.Fatalf("decoding GET %s: %v\n%s", url, err, raw)
	}
	return resp.StatusCode
}

// TestServerEndToEnd exercises the acceptance flow: submit a morris job,
// poll to completion, fetch a valid scenario with precision/recall.
func TestServerEndToEnd(t *testing.T) {
	srv, _ := startTestServer(t)

	code, created := postJSON(t, srv.URL+"/v1/jobs",
		`{"function":"morris","n":150,"l":2000,"seed":4}`)
	if code != http.StatusCreated {
		t.Fatalf("submit returned %d: %v", code, created)
	}
	id, _ := created["id"].(string)
	if id == "" {
		t.Fatalf("no job id in %v", created)
	}

	deadline := time.Now().Add(120 * time.Second)
	var snap Snapshot
	for {
		if code := getJSON(t, srv.URL+"/v1/jobs/"+id, &snap); code != http.StatusOK {
			t.Fatalf("status poll returned %d", code)
		}
		if snap.Status.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s (stage %s, labels %d/%d)", snap.Status, snap.Stage, snap.LabelDone, snap.LabelTotal)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if snap.Status != StatusDone {
		t.Fatalf("job finished %s: %s", snap.Status, snap.Error)
	}

	var res Result
	if code := getJSON(t, srv.URL+"/v1/jobs/"+id+"/result", &res); code != http.StatusOK {
		t.Fatalf("result returned %d", code)
	}
	if res.Best.Box == nil || res.Best.Rule == "" {
		t.Fatalf("result has no scenario: %+v", res.Best)
	}
	if res.Best.Precision < 0 || res.Best.Precision > 1 || res.Best.Recall < 0 || res.Best.Recall > 1 {
		t.Fatalf("precision/recall out of range: %v/%v", res.Best.Precision, res.Best.Recall)
	}
	if res.Best.Precision == 0 && res.Best.Recall == 0 {
		t.Fatalf("degenerate scenario with zero precision and recall")
	}
}

func TestServerInlineCSV(t *testing.T) {
	srv, _ := startTestServer(t)

	var csv bytes.Buffer
	csv.WriteString("a0,a1,y\n")
	rng := uint64(12345)
	next := func() float64 { // tiny deterministic LCG, avoids rand here
		rng = rng*6364136223846793005 + 1442695040888963407
		return float64(rng>>11) / float64(1<<53)
	}
	for i := 0; i < 200; i++ {
		x0, x1 := next(), next()
		y := 0
		if x0 < 0.5 && x1 < 0.5 {
			y = 1
		}
		fmt.Fprintf(&csv, "%.6f,%.6f,%d\n", x0, x1, y)
	}
	body, _ := json.Marshal(map[string]any{"csv": csv.String(), "l": 1500, "seed": 2})
	code, created := postJSON(t, srv.URL+"/v1/jobs", string(body))
	if code != http.StatusCreated {
		t.Fatalf("submit returned %d: %v", code, created)
	}
	id := created["id"].(string)

	deadline := time.Now().Add(60 * time.Second)
	var snap Snapshot
	for {
		getJSON(t, srv.URL+"/v1/jobs/"+id, &snap)
		if snap.Status.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("csv job stuck at %s", snap.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if snap.Status != StatusDone {
		t.Fatalf("csv job finished %s: %s", snap.Status, snap.Error)
	}
	var res Result
	getJSON(t, srv.URL+"/v1/jobs/"+id+"/result", &res)
	if res.Best.Rule == "" {
		t.Fatalf("csv job produced no rule")
	}
}

func TestServerErrorsAndRegistry(t *testing.T) {
	srv, _ := startTestServer(t)

	// Unknown function → 400.
	if code, _ := postJSON(t, srv.URL+"/v1/jobs", `{"function":"nope"}`); code != http.StatusBadRequest {
		t.Errorf("unknown function returned %d, want 400", code)
	}
	// Unknown field → 400.
	if code, _ := postJSON(t, srv.URL+"/v1/jobs", `{"bogus":1}`); code != http.StatusBadRequest {
		t.Errorf("unknown field returned %d, want 400", code)
	}
	// Unknown job → 404.
	var any1 map[string]any
	if code := getJSON(t, srv.URL+"/v1/jobs/job-999999", &any1); code != http.StatusNotFound {
		t.Errorf("unknown job returned %d, want 404", code)
	}
	// Result before submission → 404; result of a pending/fresh job → 409
	// is covered implicitly by the e2e test's polling.

	var funcsResp struct {
		Functions []FunctionInfo `json:"functions"`
	}
	if code := getJSON(t, srv.URL+"/v1/functions", &funcsResp); code != http.StatusOK {
		t.Fatalf("functions returned %d", code)
	}
	found := false
	for _, f := range funcsResp.Functions {
		if f.Name == "morris" {
			found = true
			if f.Dim != 20 {
				t.Errorf("morris dim = %d, want 20", f.Dim)
			}
		}
	}
	if !found {
		t.Errorf("functions listing misses morris")
	}

	var health map[string]any
	if code := getJSON(t, srv.URL+"/v1/healthz", &health); code != http.StatusOK || health["ok"] != true {
		t.Errorf("healthz = %d %v", code, health)
	}
}

func TestServerCancel(t *testing.T) {
	srv, e := startTestServer(t)
	_ = e

	code, created := postJSON(t, srv.URL+"/v1/jobs",
		`{"function":"hart3","n":200,"l":3000000,"seed":1}`)
	if code != http.StatusCreated {
		t.Fatalf("submit returned %d", code)
	}
	id := created["id"].(string)

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel returned %d", resp.StatusCode)
	}

	deadline := time.Now().Add(60 * time.Second)
	var snap Snapshot
	for {
		getJSON(t, srv.URL+"/v1/jobs/"+id, &snap)
		if snap.Status.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("canceled job stuck at %s", snap.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if snap.Status != StatusCanceled {
		t.Fatalf("status = %s, want canceled", snap.Status)
	}
}

// TestServerHaltonInputLimit: Halton has one prime base per input, so a
// halton request wider than sample.HaltonMaxDim inputs gets 400 naming
// the limit, instead of panicking inside a variant. A request at the
// limit runs to done.
func TestServerHaltonInputLimit(t *testing.T) {
	srv, _ := startTestServer(t)
	body := func(m int) string {
		rng := rand.New(rand.NewSource(int64(m)))
		x := make([][]float64, 40)
		y := make([]float64, len(x))
		for i := range x {
			x[i] = make([]float64, m)
			for j := range x[i] {
				x[i][j] = rng.Float64()
			}
			if x[i][0] < 0.4 {
				y[i] = 1
			}
		}
		raw, err := json.Marshal(map[string]any{
			"dataset": map[string]any{"x": x, "y": y}, "sampler": "halton", "l": 300, "seed": 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	code, out := postJSON(t, srv.URL+"/v1/jobs", body(sample.HaltonMaxDim+1))
	if msg := fmt.Sprint(out["error"]); code != http.StatusBadRequest || !strings.Contains(msg, "at most 100 inputs") {
		t.Errorf("101 halton inputs returned %d %q, want 400 naming the limit", code, msg)
	}
	code, created := postJSON(t, srv.URL+"/v1/jobs", body(sample.HaltonMaxDim))
	if code != http.StatusCreated {
		t.Fatalf("100 halton inputs returned %d: %v", code, created)
	}
	id := created["id"].(string)
	deadline := time.Now().Add(60 * time.Second)
	var snap Snapshot
	for getJSON(t, srv.URL+"/v1/jobs/"+id, &snap); !snap.Status.Terminal(); getJSON(t, srv.URL+"/v1/jobs/"+id, &snap) {
		if time.Now().After(deadline) {
			t.Fatalf("halton job stuck at %s", snap.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if snap.Status != StatusDone {
		t.Fatalf("halton job at the limit finished %s: %s", snap.Status, snap.Error)
	}
}
