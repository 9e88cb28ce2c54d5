package telemetry

import (
	"context"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"
)

func TestRequestIDContext(t *testing.T) {
	ctx := context.Background()
	if got := RequestID(ctx); got != "" {
		t.Fatalf("empty context carries request id %q", got)
	}
	ctx = WithRequestID(ctx, "abc123")
	if got := RequestID(ctx); got != "abc123" {
		t.Fatalf("request id = %q, want abc123", got)
	}
	if WithRequestID(ctx, "") != ctx {
		t.Fatal("WithRequestID(\"\") should return the context unchanged")
	}
}

func TestNewRequestID(t *testing.T) {
	idRE := regexp.MustCompile(`^[0-9a-f]{16}$`)
	a, b := NewRequestID(), NewRequestID()
	if !idRE.MatchString(a) || !idRE.MatchString(b) {
		t.Fatalf("ids %q/%q are not 16 hex chars", a, b)
	}
	if a == b {
		t.Fatalf("two fresh ids collided: %q", a)
	}
}

func TestInstrumentAssignsAndPropagatesRequestID(t *testing.T) {
	reg := NewRegistry()
	var seen string
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = RequestID(r.Context())
		w.WriteHeader(http.StatusTeapot)
	})
	h := Instrument(inner, reg, nil)

	// A caller-provided id reaches the handler context and the response
	// header unchanged.
	req := httptest.NewRequest("GET", "/v1/jobs", nil)
	req.Header.Set(RequestIDHeader, "deadbeefdeadbeef")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if seen != "deadbeefdeadbeef" {
		t.Fatalf("handler saw request id %q, want the inbound header", seen)
	}
	if got := rr.Header().Get(RequestIDHeader); got != "deadbeefdeadbeef" {
		t.Fatalf("response echoed %q, want the inbound header", got)
	}

	// Without the header a fresh id is assigned and echoed.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/jobs", nil))
	if seen == "" || seen == "deadbeefdeadbeef" {
		t.Fatalf("handler saw %q, want a fresh generated id", seen)
	}
	if got := rr.Header().Get(RequestIDHeader); got != seen {
		t.Fatalf("response echoed %q, want the generated id %q", got, seen)
	}

	// Both requests were recorded with method and status code.
	if v, ok := reg.Value("reds_http_requests_total", "GET", "418"); !ok || v != 2 {
		t.Fatalf("requests counter = %v/%v, want 2/true", v, ok)
	}
	if v, ok := reg.Value("reds_http_request_seconds", "GET"); !ok || v != 2 {
		t.Fatalf("request latency count = %v/%v, want 2/true", v, ok)
	}
}
