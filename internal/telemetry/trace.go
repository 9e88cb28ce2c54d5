package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"time"
)

// RequestIDHeader is the HTTP header that carries a job's request ID
// across process boundaries: clients may set it on POST /v1/jobs, the
// gateway's RemoteExecutor forwards it on POST /internal/v1/execute,
// and every response echoes it — so one job's trace is correlatable
// across the gateway's and the worker's logs and timings.
const RequestIDHeader = "X-Request-Id"

type requestIDKey struct{}

// WithRequestID returns a context carrying the request ID.
func WithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestID returns the context's request ID, or "".
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// NewRequestID returns a fresh 16-hex-character request ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; a
		// time-derived ID still distinguishes concurrent jobs well
		// enough for log correlation.
		now := time.Now().UnixNano()
		for i := range b {
			b[i] = byte(now >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}
