package coordinator

// The worker wire protocol: three JSON-over-HTTP endpoints the sweep
// server mounts next to its job API, and the matching client used by the
// Worker loop and `netsim work`.
//
//	POST /api/v1/leases/acquire   {"worker"}                 -> 200 Grant | 204 (nothing to do)
//	POST /api/v1/leases/renew     {"lease_id","epoch","worker"} -> 200 {"ttl_ns"} | 409 (lease lost)
//	POST /api/v1/leases/complete  {"lease_id","job","shard","epoch","worker","rows"}
//	                              -> 200 {"status":"accepted"|"duplicate"}
//	                               | 409 {"status":"stale"} | 422 {"status":"invalid","error"}
//
// Every request names the worker, so every lease RPC doubles as a
// liveness signal; an idle worker stays visible through the Acquire calls
// it polls with.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"otisnet/internal/sweep"
)

// AcquireRequest asks for a lease.
type AcquireRequest struct {
	Worker string `json:"worker"`
}

// RenewRequest extends a lease.
type RenewRequest struct {
	LeaseID string `json:"lease_id"`
	Epoch   int    `json:"epoch"`
	Worker  string `json:"worker"`
}

// RenewResponse carries the refreshed TTL (nanoseconds).
type RenewResponse struct {
	TTL time.Duration `json:"ttl_ns"`
}

// CompleteRequest reports a shard's rows under a lease. Job and Shard
// are carried explicitly so a late completion whose lease is already
// gone can still be classified (duplicate vs stale).
type CompleteRequest struct {
	LeaseID string              `json:"lease_id"`
	Job     string              `json:"job"`
	Shard   int                 `json:"shard"`
	Epoch   int                 `json:"epoch"`
	Worker  string              `json:"worker"`
	Rows    []sweep.ShardResult `json:"rows"`
}

// AppendJSON appends the request as json.Marshal encodes it, without
// reflection: the canonical layout ParseCanonical reads.
func (req *CompleteRequest) AppendJSON(b []byte) []byte {
	b = sweep.AppendJSONString(append(b, `{"lease_id":`...), req.LeaseID)
	b = sweep.AppendJSONString(append(b, `,"job":`...), req.Job)
	b = strconv.AppendInt(append(b, `,"shard":`...), int64(req.Shard), 10)
	b = strconv.AppendInt(append(b, `,"epoch":`...), int64(req.Epoch), 10)
	b = sweep.AppendJSONString(append(b, `,"worker":`...), req.Worker)
	b = sweep.AppendShardResultsJSON(append(b, `,"rows":`...), req.Rows)
	return append(b, '}')
}

// ParseCanonical fills req from body when body is in the canonical layout
// AppendJSON writes, and reports whether it was. On false req is reset to
// its zero value, and the body must go through DecodeStrict, which decides
// whether it is valid at all. A canonical body allocates its rows slice,
// one key string per row and its three envelope strings.
func (req *CompleteRequest) ParseCanonical(body []byte) bool {
	c := sweep.NewJSONCursor(body)
	c.Lit(`{"lease_id":`)
	req.LeaseID = c.Str()
	c.Lit(`,"job":`)
	req.Job = c.Str()
	c.Lit(`,"shard":`)
	req.Shard = c.Int()
	c.Lit(`,"epoch":`)
	req.Epoch = c.Int()
	c.Lit(`,"worker":`)
	req.Worker = c.Str()
	c.Lit(`,"rows":`)
	req.Rows = c.ShardResults()
	c.Lit(`}`)
	if !c.OK() {
		*req = CompleteRequest{}
		return false
	}
	return true
}

// readBody reads a request body whole, into one buffer of the declared
// length when the client declared one.
func readBody(r *http.Request) ([]byte, error) {
	if n := r.ContentLength; n > 0 && n <= maxPresizedBody {
		body := make([]byte, n)
		_, err := io.ReadFull(r.Body, body)
		return body, err
	}
	return io.ReadAll(r.Body)
}

// maxPresizedBody caps the buffer a declared Content-Length may allocate
// up front; longer bodies grow as they arrive.
const maxPresizedBody = 64 << 20

// CompleteResponse classifies the completion outcome.
type CompleteResponse struct {
	Status CompleteStatus `json:"status"`
	Error  string         `json:"error,omitempty"`
}

// Mount registers the worker protocol endpoints on mux; from then on
// netsim_coord_workers_live counts this coordinator's workers.
func (c *Coordinator) Mount(mux *http.ServeMux) {
	c.mu.Lock()
	c.mounted = true
	c.mu.Unlock()
	mux.HandleFunc("POST /api/v1/leases/acquire", c.handleAcquire)
	mux.HandleFunc("POST /api/v1/leases/renew", c.handleRenew)
	mux.HandleFunc("POST /api/v1/leases/complete", c.handleComplete)
}

// DecodeStrict decodes exactly one JSON value from r into v, rejecting
// unknown fields and any bytes after the value. It is the judge of every
// JSON request body the service accepts — the lease endpoints here and
// the sweep server's grid submissions. One body skips it: a completion in
// the canonical layout CompleteRequest.AppendJSON writes, which
// ParseCanonical reads without reflection. That fast path accepts only
// bodies DecodeStrict accepts with an equal value, and every other
// completion (curl, hand-written, re-spaced) still goes through here, so
// each body gets the answer DecodeStrict gives it.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// decodeJSON decodes a lease request body into v with DecodeStrict and
// requires it to name a non-empty worker (worker points into v). Any
// other body is answered 400 and decodeJSON returns false.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any, worker *string) bool {
	return checkDecoded(w, DecodeStrict(r.Body, v), *worker)
}

// checkDecoded answers 400 to a body that failed to decode or names no
// worker, and reports whether the request may go on.
func checkDecoded(w http.ResponseWriter, err error, worker string) bool {
	if err == nil && worker == "" {
		err = errors.New("empty worker")
	}
	if err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func (c *Coordinator) handleAcquire(w http.ResponseWriter, r *http.Request) {
	var req AcquireRequest
	if !decodeJSON(w, r, &req, &req.Worker) {
		return
	}
	g, ok, _ := c.Acquire(r.Context(), req.Worker)
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(g)
}

func (c *Coordinator) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req RenewRequest
	if !decodeJSON(w, r, &req, &req.Worker) {
		return
	}
	ttl, err := c.Renew(r.Context(), req.Worker, Grant{LeaseID: req.LeaseID, Epoch: req.Epoch})
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(RenewResponse{TTL: ttl})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	body, err := readBody(r)
	if err == nil && !req.ParseCanonical(body) {
		err = DecodeStrict(bytes.NewReader(body), &req)
	}
	if !checkDecoded(w, err, req.Worker) {
		return
	}
	st, err := c.Complete(r.Context(), req.Worker, Grant{LeaseID: req.LeaseID, Job: req.Job, Shard: req.Shard, Epoch: req.Epoch}, req.Rows)
	resp := CompleteResponse{Status: st}
	if err != nil {
		resp.Error = err.Error()
	}
	code := http.StatusOK
	switch st {
	case StatusStale:
		code = http.StatusConflict
	case StatusInvalid:
		code = http.StatusUnprocessableEntity
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(resp)
}

// Client is the worker-side HTTP client for the lease protocol.
type Client struct {
	// BaseURL is the coordinator's root (e.g. "http://127.0.0.1:8080").
	BaseURL string
	// HTTPClient is the transport; nil means http.DefaultClient.
	HTTPClient *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// post sends one JSON request and decodes the response body into out
// (when out is non-nil and the body is non-empty JSON — error statuses
// carrying plain-text bodies, like renew's 409, must still surface their
// status code rather than a decode error). It returns the status code and
// any transport/decode error.
func (c *Client) post(ctx context.Context, path string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	return c.postBody(ctx, path, body, out)
}

// postBody is post for a body that is already encoded.
func (c *Client) postBody(ctx context.Context, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && len(bytes.TrimSpace(data)) > 0 && strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("coordinator: bad %s response: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}

// Acquire asks for a lease; ok is false when the coordinator has nothing
// to hand out right now.
func (c *Client) Acquire(ctx context.Context, worker string) (Grant, bool, error) {
	var g Grant
	code, err := c.post(ctx, "/api/v1/leases/acquire", AcquireRequest{Worker: worker}, &g)
	if err != nil {
		return Grant{}, false, err
	}
	switch code {
	case http.StatusOK:
		return g, true, nil
	case http.StatusNoContent:
		return Grant{}, false, nil
	default:
		return Grant{}, false, fmt.Errorf("coordinator: acquire: HTTP %d", code)
	}
}

// Renew extends the lease; ErrLeaseLost means the worker should drop the
// shard.
func (c *Client) Renew(ctx context.Context, worker string, g Grant) (time.Duration, error) {
	var resp RenewResponse
	code, err := c.post(ctx, "/api/v1/leases/renew", RenewRequest{LeaseID: g.LeaseID, Epoch: g.Epoch, Worker: worker}, &resp)
	if err != nil {
		return 0, err
	}
	switch code {
	case http.StatusOK:
		return resp.TTL, nil
	case http.StatusConflict:
		return 0, ErrLeaseLost
	default:
		return 0, fmt.Errorf("coordinator: renew: HTTP %d", code)
	}
}

// Complete reports the shard rows. The returned status mirrors
// Coordinator.Complete; transport failures are the error.
func (c *Client) Complete(ctx context.Context, worker string, g Grant, rows []sweep.ShardResult) (CompleteStatus, error) {
	req := CompleteRequest{LeaseID: g.LeaseID, Job: g.Job, Shard: g.Shard, Epoch: g.Epoch, Worker: worker, Rows: rows}
	var resp CompleteResponse
	code, err := c.postBody(ctx, "/api/v1/leases/complete", req.AppendJSON(make([]byte, 0, 128+len(rows)*completeRowBytes)), &resp)
	if err != nil {
		return "", err
	}
	switch code {
	case http.StatusOK, http.StatusConflict, http.StatusUnprocessableEntity:
		if resp.Error != "" {
			return resp.Status, fmt.Errorf("coordinator: complete: %s", resp.Error)
		}
		return resp.Status, nil
	default:
		return "", fmt.Errorf("coordinator: complete: HTTP %d", code)
	}
}

// completeRowBytes sizes a completion body: a canonical row with a key
// and four- to seven-digit counters takes 300 to 350 bytes.
const completeRowBytes = 384
