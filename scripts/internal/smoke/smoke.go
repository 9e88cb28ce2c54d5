// Package smoke is what the multi-process smoke commands
// (scripts/cluster-smoke and scripts/chaos-smoke) share: the fleet of
// real redsserver and redsgateway processes they start, and the HTTP
// client they drive it with: submit a job, poll it to completion, read
// JSON and /metrics, and wait for processes, readiness and the
// gateway's view of its workers.
package smoke

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/reds-go/reds/internal/telemetry"
)

// Client talks to one gateway as one bearer-token client.
type Client struct {
	// Gateway is the gateway's base URL, e.g. "http://127.0.0.1:18090".
	Gateway string
	// Token is the bearer token sent on every call.
	Token string
}

// Request performs one HTTP call with an optional body, X-Request-Id
// and bearer token, and returns status, body and headers.
func Request(method, url, body, requestID, token string) (int, []byte, http.Header, error) {
	var rd io.Reader
	if body != "" {
		rd = bytes.NewReader([]byte(body))
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if requestID != "" {
		req.Header.Set(telemetry.RequestIDHeader, requestID)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, resp.Header, err
}

// GetJSON GETs url, on the gateway or a worker, as the client (open
// endpoints ignore the token; authenticated ones need its read role)
// and decodes a 200 response into v.
func (c Client) GetJSON(url string, v any) error {
	status, raw, _, err := Request("GET", url, "", "", c.Token)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: %d: %.200s", url, status, raw)
	}
	return json.Unmarshal(raw, v)
}

// Submit POSTs a job to the gateway and returns its id; a non-empty
// requestID is sent as the X-Request-Id header.
func (c Client) Submit(body, requestID string) (string, error) {
	status, raw, _, err := Request("POST", c.Gateway+"/v1/jobs", body, requestID, c.Token)
	if err != nil {
		return "", err
	}
	if status != http.StatusCreated {
		return "", fmt.Errorf("POST /v1/jobs: %d: %s", status, raw)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &out); err != nil || out.ID == "" {
		return "", fmt.Errorf("undecodable submit response: %s", raw)
	}
	return out.ID, nil
}

// WaitDone polls job id on the gateway until it is done, and fails
// when it ends failed or canceled or is still running after timeout.
func (c Client) WaitDone(id string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		var snap struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if err := c.GetJSON(fmt.Sprintf("%s/v1/jobs/%s", c.Gateway, id), &snap); err != nil {
			return fmt.Errorf("polling %s: %w", id, err)
		}
		switch snap.Status {
		case "done":
			return nil
		case "failed", "canceled":
			return fmt.Errorf("job %s ended %s: %s", id, snap.Status, snap.Error)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s still %s after %v", id, snap.Status, timeout)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// WaitGatewaySeesWorkers polls the gateway's healthz until its health
// prober reports want workers, every one of them alive.
func (c Client) WaitGatewaySeesWorkers(want int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		var ghz struct {
			OK      bool `json:"ok"`
			Workers []struct {
				Node  string `json:"node"`
				Alive bool   `json:"alive"`
				Error string `json:"error"`
			} `json:"workers"`
		}
		err := c.GetJSON(c.Gateway+"/v1/healthz", &ghz)
		if err == nil && ghz.OK && len(ghz.Workers) == want {
			alive := 0
			for _, w := range ghz.Workers {
				if w.Alive {
					alive++
				}
			}
			if alive == want {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gateway never saw %d workers alive: %+v (%v)", want, ghz, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// WaitReady polls base's /v1/readyz until it answers 200.
func WaitReady(base string, timeout time.Duration) error {
	return waitOK(base+"/v1/readyz", timeout)
}

// WaitHealthy polls base's /v1/healthz until it answers 200.
func WaitHealthy(base string, timeout time.Duration) error {
	return waitOK(base+"/v1/healthz", timeout)
}

// waitOK GETs url every 100ms until it answers 200, and fails with the
// last error or status after timeout.
func waitOK(url string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %s", resp.Status)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("GET %s never answered 200 (last: %v)", url, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// Metrics is a parsed text exposition of one process's /metrics.
type Metrics struct {
	// Families maps each family name to its TYPE.
	Families map[string]string
	// Series maps every series name (including _bucket, _sum and
	// _count) to its values summed over their label sets.
	Series map[string]float64
}

// ScrapeMetrics GETs base's /metrics and parses it. It fails unless the
// response is 200 with the Prometheus text Content-Type, every TYPE
// line names a family that follows the reds_<subsystem>_<name>_<unit>
// convention, every series line carries a number, and at least one
// family is exposed.
func ScrapeMetrics(base string) (*Metrics, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("GET %s/metrics: %w", base, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", base, resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.TextContentType {
		return nil, fmt.Errorf("%s/metrics Content-Type = %q, want %q", base, ct, telemetry.TextContentType)
	}

	m := &Metrics{Families: map[string]string{}, Series: map[string]float64{}}
	for ln, line := range strings.Split(string(raw), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				return nil, fmt.Errorf("%s/metrics line %d: malformed TYPE comment %q", base, ln+1, line)
			}
			name, typ := fields[2], fields[3]
			if err := telemetry.CheckName(name); err != nil {
				return nil, fmt.Errorf("%s/metrics exposes non-conformant family: %w", base, err)
			}
			m.Families[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("%s/metrics line %d: unparseable series %q", base, ln+1, line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("%s/metrics line %d: bad value in %q: %w", base, ln+1, line, err)
		}
		name := line[:sp]
		if br := strings.IndexByte(name, '{'); br >= 0 {
			name = name[:br]
		}
		m.Series[name] += v
	}
	if len(m.Families) == 0 {
		return nil, fmt.Errorf("%s/metrics exposed no metric families", base)
	}
	return m, nil
}
