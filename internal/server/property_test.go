package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/servetest"
)

// TestPropertyErrorResponsesAreStructuredJSON runs the shared
// corruption table (see servetest) against the server handler.
func TestPropertyErrorResponsesAreStructuredJSON(t *testing.T) {
	servetest.ErrorResponsesAreStructuredJSON(t, New(Config{MaxBody: 64 << 10}))
}

// TestPropertyCancelledContext asserts a request whose context is already
// cancelled still answers a structured JSON error (503), on both the
// batch and the pareto paths.
func TestPropertyCancelledContext(t *testing.T) {
	s := New(Config{})
	inst := servetest.Fig1JSON(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for path, body := range map[string]string{
		"/v1/batch":  fmt.Sprintf(`{"instance": %s, "jobs": [{"request": {"objective": "period"}}]}`, inst),
		"/v1/pareto": fmt.Sprintf(`{"instance": %s}`, inst),
	} {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", path, strings.NewReader(body)).WithContext(ctx)
		s.ServeHTTP(rec, req)
		servetest.CheckStructuredError(t, path, rec)
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("%s with cancelled context answered %d, want 503\n%s", path, rec.Code, rec.Body.String())
		}
	}
}

// TestPropertyOversizedBodyAllEndpoints asserts the body cap protects
// every POST endpoint with a structured 413.
func TestPropertyOversizedBodyAllEndpoints(t *testing.T) {
	servetest.OversizedBodyAllEndpoints(t, New(Config{MaxBody: 1024}), New(Config{}))
}
