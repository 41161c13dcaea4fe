package coordinator

// The worker wire protocol: four JSON-over-HTTP endpoints the sweep
// server mounts next to its job API, and the matching client used by the
// Worker loop and `netsim work`.
//
//	POST /api/v1/leases/acquire   {"worker"}                 -> 200 Grant | 204 (nothing to do)
//	POST /api/v1/leases/renew     {"lease_id","epoch","worker"} -> 200 {"ttl_ns"} | 409 (lease lost)
//	POST /api/v1/leases/complete  {"lease_id","job","shard","epoch","worker","rows"}
//	                              -> 200 {"status":"accepted"|"duplicate"}
//	                               | 409 {"status":"stale"} | 422 {"status":"invalid","error"}
//	POST /api/v1/workers/heartbeat {"worker"}                -> 204
//
// Every request names the worker, so any lease RPC doubles as a
// liveness signal; the explicit heartbeat exists for idle workers that
// want to stay visible without acquiring.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
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

// CompleteResponse classifies the completion outcome.
type CompleteResponse struct {
	Status CompleteStatus `json:"status"`
	Error  string         `json:"error,omitempty"`
}

// HeartbeatRequest records worker liveness.
type HeartbeatRequest struct {
	Worker string `json:"worker"`
}

// Mount registers the worker protocol endpoints on mux.
func (c *Coordinator) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /api/v1/leases/acquire", c.handleAcquire)
	mux.HandleFunc("POST /api/v1/leases/renew", c.handleRenew)
	mux.HandleFunc("POST /api/v1/leases/complete", c.handleComplete)
	mux.HandleFunc("POST /api/v1/workers/heartbeat", c.handleHeartbeat)
}

// DecodeStrict decodes exactly one JSON value from r into v, rejecting
// unknown fields and any bytes after the value. Every JSON request body
// the service accepts — the lease endpoints here and the sweep server's
// grid submissions — is read through it.
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
	err := DecodeStrict(r.Body, v)
	if err == nil && *worker == "" {
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
	g, ok := c.Acquire(req.Worker)
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
	ttl, err := c.Renew(req.LeaseID, req.Epoch, req.Worker)
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(RenewResponse{TTL: ttl})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !decodeJSON(w, r, &req, &req.Worker) {
		return
	}
	st, err := c.Complete(req.Job, req.Shard, req.LeaseID, req.Epoch, req.Worker, req.Rows)
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

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeJSON(w, r, &req, &req.Worker) {
		return
	}
	c.Heartbeat(req.Worker)
	w.WriteHeader(http.StatusNoContent)
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
	var resp CompleteResponse
	code, err := c.post(ctx, "/api/v1/leases/complete", CompleteRequest{
		LeaseID: g.LeaseID, Job: g.Job, Shard: g.Shard, Epoch: g.Epoch, Worker: worker, Rows: rows,
	}, &resp)
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

// Heartbeat records worker liveness.
func (c *Client) Heartbeat(ctx context.Context, worker string) error {
	code, err := c.post(ctx, "/api/v1/workers/heartbeat", HeartbeatRequest{Worker: worker}, nil)
	if err != nil {
		return err
	}
	if code != http.StatusNoContent && code != http.StatusOK {
		return fmt.Errorf("coordinator: heartbeat: HTTP %d", code)
	}
	return nil
}
