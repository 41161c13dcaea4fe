package coordinator

import (
	"context"
	"testing"

	"otisnet/internal/obs"
	"otisnet/internal/sim"
	"otisnet/internal/sweep"
)

// forgetPoints is a 4-point grid on SK(3,2,2).
func forgetPoints(t *testing.T) []sweep.Scenario {
	t.Helper()
	topo, err := sweep.TopoSpec{Net: "sk", S: 3, D: 2, K: 2}.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := sweep.Grid{Topologies: []sweep.Topology{topo}, Rates: []float64{0.1, 0.3}, Seeds: []int64{1, 2}, Slots: 50, Drain: 50}
	return g.Points()
}

// forgetRows fabricates the rows of one shard of two: global indices and
// per-index marker metrics, no keys unless key is set.
func forgetRows(t *testing.T, points []sweep.Scenario, shard int, key string) []sweep.ShardResult {
	t.Helper()
	sh, err := sweep.ShardPoints(points, shard, 2)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]sweep.ShardResult, len(sh.Indices))
	for i, idx := range sh.Indices {
		rows[i] = sweep.ShardResult{Index: idx, Key: key, Metrics: sim.Metrics{Delivered: idx + 1}}
	}
	return rows
}

// TestForgetEndedJobs: a job that merges, one that fails to merge and one
// that is canceled all leave the job table and the acquire order with
// their points, payload, shard indices and shard rows, while the *Job
// Submit returned still answers Progress (with no shard left leased) and
// Results.
func TestForgetEndedJobs(t *testing.T) {
	ctx := context.Background()
	points := forgetPoints(t)
	for _, tc := range []struct {
		name  string
		end   func(t *testing.T, c *Coordinator, g0, g1 Grant)
		state JobState
	}{
		{"merged", func(t *testing.T, c *Coordinator, g0, g1 Grant) {
			for _, g := range []Grant{g0, g1} {
				if st, err := c.Complete(ctx, "w", g, forgetRows(t, points, g.Shard, "")); st != StatusAccepted {
					t.Fatalf("shard %d: %s %v", g.Shard, st, err)
				}
			}
		}, JobDone},
		{"merge failed", func(t *testing.T, c *Coordinator, g0, g1 Grant) {
			c.Complete(ctx, "w", g0, forgetRows(t, points, g0.Shard, ""))
			if st, err := c.Complete(ctx, "w", g1, forgetRows(t, points, g1.Shard, "deadbeef")); st != StatusAccepted {
				t.Fatalf("last shard: %s %v", st, err)
			}
		}, JobFailed},
		{"canceled", func(t *testing.T, c *Coordinator, g0, _ Grant) {
			c.Complete(ctx, "w", g0, forgetRows(t, points, g0.Shard, ""))
			c.Cancel("j")
		}, JobCanceled},
	} {
		c := New(Config{})
		j, err := c.Submit("j", points, []byte("payload"), 2, 0, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		g0, _, _ := c.Acquire(ctx, "w")
		g1, _, _ := c.Acquire(ctx, "w")
		tc.end(t, c, g0, g1)
		c.mu.Lock()
		held, running := len(c.jobs), len(c.order)
		c.mu.Unlock()
		if held != 0 || running != 0 {
			t.Errorf("%s: the coordinator holds %d jobs, %d in its acquire order; want none", tc.name, held, running)
		}
		if j.points != nil || j.payload != nil || j.shardIdx != nil {
			t.Errorf("%s: the ended job keeps its points, payload or shard indices", tc.name)
		}
		for i := range j.shards {
			if j.shards[i].rows != nil {
				t.Errorf("%s: shard %d keeps its rows", tc.name, i)
			}
		}
		p := j.Progress()
		if p.State != tc.state || p.ShardsTotal != 2 || p.ShardsLeased != 0 {
			t.Errorf("%s: progress %+v, want state %s over 2 shards, none leased", tc.name, p, tc.state)
		}
		results, err := j.Results()
		if (tc.state == JobDone) != (err == nil) || (tc.state == JobDone && len(results) != len(points)) {
			t.Errorf("%s: Results gave %d results, err %v", tc.name, len(results), err)
		}
		if _, err := c.Submit("j", points, nil, 1, 0, Hooks{}); err != nil {
			t.Errorf("%s: the id of a forgotten job cannot be submitted again: %v", tc.name, err)
		}
	}
}

// TestForgetCountsLateCompletionsStale: a completion that arrives after
// its job ended names a job the coordinator no longer holds; it is
// answered stale and counted in netsim_coord_completions_stale_total.
func TestForgetCountsLateCompletionsStale(t *testing.T) {
	ctx := context.Background()
	stale := obs.Default().Counter("netsim_coord_completions_stale_total", "")
	points := forgetPoints(t)
	c := New(Config{})
	if _, err := c.Submit("merged", points, nil, 2, 0, Hooks{}); err != nil {
		t.Fatal(err)
	}
	g0, _, _ := c.Acquire(ctx, "w")
	g1, _, _ := c.Acquire(ctx, "w")
	for _, g := range []Grant{g0, g1} {
		if st, err := c.Complete(ctx, "w", g, forgetRows(t, points, g.Shard, "")); st != StatusAccepted {
			t.Fatalf("shard %d: %s %v", g.Shard, st, err)
		}
	}
	if _, err := c.Submit("canceled", points, nil, 2, 0, Hooks{}); err != nil {
		t.Fatal(err)
	}
	g2, _, _ := c.Acquire(ctx, "w")
	c.Cancel("canceled")

	before := stale.Value()
	for _, g := range []Grant{g0, g1, g2} {
		if st, _ := c.Complete(ctx, "late", g, forgetRows(t, points, g.Shard, "")); st != StatusStale {
			t.Fatalf("completion for ended job %s: %s, want stale", g.Job, st)
		}
	}
	if d := stale.Value() - before; d != 3 {
		t.Fatalf("three late completions moved the stale counter by %d, want 3", d)
	}
}
