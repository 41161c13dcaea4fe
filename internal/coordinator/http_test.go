package coordinator_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"otisnet/internal/coordinator"
)

// TestLeaseBadRequestBodies pins the answer of every lease endpoint to
// each malformed body: 400 with the exact reason, and no worker
// registered by the rejected request.
func TestLeaseBadRequestBodies(t *testing.T) {
	coord := coordinator.New(coordinator.Config{Clock: newFakeClock()})
	mux := http.NewServeMux()
	coord.Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	const bad = "bad request body: "
	for _, path := range []string{
		"/api/v1/leases/acquire",
		"/api/v1/leases/renew",
		"/api/v1/leases/complete",
		"/api/v1/workers/heartbeat",
	} {
		for _, tc := range []struct {
			name, body, want string
		}{
			{"empty body", ``, bad + "EOF"},
			{"malformed JSON", `{"worker":`, bad + "unexpected EOF"},
			{"unknown field", `{"worker":"w1","frobnicate":1}`, bad + `json: unknown field "frobnicate"`},
			{"wrong type", `{"worker":7}`, bad + "json: cannot unmarshal number into Go struct field " + requestType(path) + ".worker of type string"},
			{"empty worker", `{"worker":""}`, bad + "empty worker"},
			{"trailing data", `{"worker":"w1"} {"worker":"w2"}`, bad + "trailing data after the JSON value"},
		} {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || string(msg) != tc.want+"\n" {
				t.Errorf("%s %s: %d %q, want 400 %q", path, tc.name, resp.StatusCode, msg, tc.want)
			}
		}
	}
	if n := coord.Workers(); n != 0 {
		t.Fatalf("rejected requests registered %d workers", n)
	}
}

// requestType names the request struct each endpoint decodes.
func requestType(path string) string {
	return map[string]string{
		"/api/v1/leases/acquire":    "AcquireRequest",
		"/api/v1/leases/renew":      "RenewRequest",
		"/api/v1/leases/complete":   "CompleteRequest",
		"/api/v1/workers/heartbeat": "HeartbeatRequest",
	}[path]
}
