package coordinator_test

import (
	"encoding/json"
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
		"/api/v1/leases/acquire":  "AcquireRequest",
		"/api/v1/leases/renew":    "RenewRequest",
		"/api/v1/leases/complete": "CompleteRequest",
	}[path]
}

// TestCompleteBodiesKeepTheirAnswers pins the full answer — status and
// body — of the complete endpoint to bodies in the canonical layout
// Client.Complete sends and to other spellings of the same values
// (spacing, key case, escapes), which take the DecodeStrict path. Each
// case runs against a fresh one-shard job whose lease LEASE at epoch 1
// belongs to worker w1; ROWS stands for the shard's seven honest rows in
// canonical form.
func TestCompleteBodiesKeepTheirAnswers(t *testing.T) {
	points := fuzzPoints(t)
	canonRows, err := json.Marshal(honestRows(points, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	const accepted = `{"status":"accepted"}`
	for _, tc := range []struct {
		name, body string
		code       int
		want       string
	}{
		{"canonical", `{"lease_id":"LEASE","job":"j","shard":0,"epoch":1,"worker":"w1","rows":ROWS}`, 200, accepted},
		{"spaced", `{ "lease_id": "LEASE", "job": "j", "shard": 0, "epoch": 1, "worker": "w1", "rows": ROWS }` + "\n", 200, accepted},
		{"key order and case", `{"Rows":ROWS,"WORKER":"w1","epoch":1,"shard":0,"Job":"j","lease_id":"LEASE"}`, 200, accepted},
		{"escaped worker", `{"lease_id":"LEASE","job":"j","shard":0,"epoch":1,"worker":"w\u0031","rows":ROWS}`, 200, accepted},
		{"exponent epoch", `{"lease_id":"LEASE","job":"j","shard":0,"epoch":1e0,"worker":"w1","rows":ROWS}`, 400,
			"bad request body: json: cannot unmarshal number 1e0 into Go struct field CompleteRequest.epoch of type int"},
		{"fraction shard", `{"lease_id":"LEASE","job":"j","shard":0.5,"epoch":1,"worker":"w1","rows":ROWS}`, 400,
			"bad request body: json: cannot unmarshal number 0.5 into Go struct field CompleteRequest.shard of type int"},
		{"shard past int64", `{"lease_id":"LEASE","job":"j","shard":9223372036854775808,"epoch":1,"worker":"w1","rows":ROWS}`, 400,
			"bad request body: json: cannot unmarshal number 9223372036854775808 into Go struct field CompleteRequest.shard of type int"},
		{"canonical empty worker", `{"lease_id":"LEASE","job":"j","shard":0,"epoch":1,"worker":"","rows":ROWS}`, 400,
			"bad request body: empty worker"},
		{"null worker", `{"lease_id":"LEASE","job":"j","shard":0,"epoch":1,"worker":null,"rows":ROWS}`, 400,
			"bad request body: empty worker"},
		{"unknown row field", `{"lease_id":"LEASE","job":"j","shard":0,"epoch":1,"worker":"w1","rows":[{"index":0,"weight":1}]}`, 400,
			`bad request body: json: unknown field "weight"`},
		{"string row index", `{"lease_id":"LEASE","job":"j","shard":0,"epoch":1,"worker":"w1","rows":[{"index":"0"}]}`, 400,
			"bad request body: json: cannot unmarshal string into Go struct field ShardResult.rows.index of type int"},
		{"trailing garbage", `{"lease_id":"LEASE","job":"j","shard":0,"epoch":1,"worker":"w1","rows":ROWS}x`, 400,
			"bad request body: trailing data after the JSON value"},
		{"unknown job", `{"lease_id":"LEASE","job":"nope","shard":0,"epoch":1,"worker":"w1","rows":ROWS}`, 409,
			`{"status":"stale","error":"coordinator: unknown job nope"}`},
		{"no such shard", `{"lease_id":"LEASE","job":"j","shard":3,"epoch":1,"worker":"w1","rows":ROWS}`, 409,
			`{"status":"stale","error":"coordinator: job j has no shard 3"}`},
		{"stale epoch", `{"lease_id":"LEASE","job":"j","shard":0,"epoch":2,"worker":"w1","rows":ROWS}`, 409,
			`{"status":"stale"}`},
		{"stale lease, spaced", `{"lease_id": "L999", "job": "j", "shard": 0, "epoch": 1, "worker": "w1", "rows": ROWS}`, 409,
			`{"status":"stale"}`},
		{"empty rows", `{"lease_id":"LEASE","job":"j","shard":0,"epoch":1,"worker":"w1","rows":[]}`, 422,
			`{"status":"invalid","error":"coordinator: shard 0 wants 7 rows, got 0"}`},
		{"null rows", `{"lease_id":"LEASE","job":"j","shard":0,"epoch":1,"worker":"w1","rows":null}`, 422,
			`{"status":"invalid","error":"coordinator: shard 0 wants 7 rows, got 0"}`},
		{"wrong index", `{"lease_id":"LEASE","job":"j","shard":0,"epoch":1,"worker":"w1","rows":[{"index":5,"metrics":{"Slots":1}}]}`, 422,
			`{"status":"invalid","error":"coordinator: shard 0 wants 7 rows, got 1"}`},
	} {
		coord := coordinator.New(coordinator.Config{Clock: newFakeClock()})
		if _, err := coord.Submit("j", points, nil, 1, 0, coordinator.Hooks{}); err != nil {
			t.Fatal(err)
		}
		g, ok, _ := coord.Acquire(bg, "w1")
		if !ok || g.Epoch != 1 {
			t.Fatalf("acquire: %+v %v", g, ok)
		}
		mux := http.NewServeMux()
		coord.Mount(mux)
		ts := httptest.NewServer(mux)
		body := strings.NewReplacer("LEASE", g.LeaseID, "ROWS", string(canonRows)).Replace(tc.body)
		resp, err := http.Post(ts.URL+"/api/v1/leases/complete", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		ts.Close()
		if resp.StatusCode != tc.code || string(msg) != tc.want+"\n" {
			t.Errorf("%s: %d %q, want %d %q", tc.name, resp.StatusCode, msg, tc.code, tc.want)
		}
	}
}
