package main

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/reds-go/reds/internal/cluster"
)

// TestWorkerAdminErrorsUseEnvelope asserts that every worker-admin
// error answers with the documented {"error": {"code", "message"}}
// envelope.
func TestWorkerAdminErrorsUseEnvelope(t *testing.T) {
	const only = "http://127.0.0.1:1"
	disp, err := cluster.NewDispatcher([]string{only}, cluster.DispatcherOptions{})
	if err != nil {
		t.Fatalf("NewDispatcher: %v", err)
	}
	defer disp.Close()
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	for _, tc := range []struct {
		handler http.HandlerFunc
		body    string
		status  int
		code    string
	}{
		{addWorker(disp, logger), `{}`, http.StatusBadRequest, "bad_request"},
		{addWorker(disp, logger), `{"url":"` + only + `"}`, http.StatusConflict, "conflict"},
		{removeWorker(disp, logger), `{"url":"http://127.0.0.1:2"}`, http.StatusNotFound, "not_found"},
		{removeWorker(disp, logger), `{"url":"` + only + `"}`, http.StatusConflict, "conflict"},
	} {
		rr := httptest.NewRecorder()
		tc.handler(rr, httptest.NewRequest("POST", "/internal/v1/workers", strings.NewReader(tc.body)))
		var env struct {
			Error struct{ Code, Message string } `json:"error"`
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil || rr.Code != tc.status ||
			env.Error.Code != tc.code || env.Error.Message == "" {
			t.Errorf("body %s: got %d %s, want %d with code %q", tc.body, rr.Code, rr.Body, tc.status, tc.code)
		}
	}
}
