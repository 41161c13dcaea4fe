package coordinator_test

// FuzzLeaseProtocol feeds the lease state machine random interleavings of
// worker events — acquires, renews, clock jumps past expiry, honest
// completions, and hostile ones (wrong epoch, wrong indices) carrying
// poisoned metrics — then drains the job to completion and checks the
// protocol's safety invariants:
//
//   - no shard is ever lost: the drain always finishes the job;
//   - no point is double-counted: OnRows never repeats a global index;
//   - no stale-epoch or invalid completion is ever accepted, and the
//     merged results carry only the honest per-point metrics — a single
//     poisoned row in the merge would be visible.
//
// The fake clock only ever moves forward; nothing sleeps.

import (
	"sync"
	"testing"
	"time"

	"otisnet/internal/coordinator"
	"otisnet/internal/sim"
	"otisnet/internal/sweep"
)

// fuzzPoints builds the fixed 7-point grid the fuzz job runs over. The
// honest metrics for point i are Metrics{Delivered: i + 1}; poisoned rows
// use Delivered >= 1000 so acceptance of one is provable from the merge.
func fuzzPoints(tb testing.TB) []sweep.Scenario {
	tb.Helper()
	topo, err := sweep.TopoSpec{Net: "sk", S: 3, D: 2, K: 2}.Build()
	if err != nil {
		tb.Fatal(err)
	}
	pts := sweep.Grid{
		Topologies: []sweep.Topology{topo},
		Rates:      []float64{0.1},
		Seeds:      []int64{1, 2, 3, 4, 5, 6, 7},
		Slots:      50,
		Drain:      50,
	}.Points()
	if len(pts) != 7 {
		tb.Fatalf("fuzz grid has %d points, want 7", len(pts))
	}
	return pts
}

func honestRows(points []sweep.Scenario, shard, shards int) []sweep.ShardResult {
	sh, err := sweep.ShardPoints(points, shard, shards)
	if err != nil {
		return nil
	}
	rows := make([]sweep.ShardResult, len(sh.Indices))
	for i, idx := range sh.Indices {
		rows[i] = sweep.ShardResult{Index: idx, Metrics: sim.Metrics{Delivered: idx + 1}}
	}
	return rows
}

func FuzzLeaseProtocol(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{0, 3, 0})
	f.Add([]byte{0, 2, 200, 0, 3, 0})
	f.Add([]byte{0, 4, 0, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const shards = 3
		const ttl = 10 * time.Second
		points := fuzzPoints(t)
		clock := newFakeClock()
		coord := coordinator.New(coordinator.Config{
			LeaseTTL:   ttl,
			StealAfter: ttl / 2,
			Clock:      clock,
		})

		var mu sync.Mutex
		seenIdx := map[int]bool{}
		var done bool
		var doneErr error
		var results []sweep.Result
		job, err := coord.Submit("fuzz", points, nil, shards, 0, coordinator.Hooks{
			OnRows: func(rows []sweep.ShardResult) {
				mu.Lock()
				defer mu.Unlock()
				for _, r := range rows {
					if seenIdx[r.Index] {
						t.Errorf("OnRows double-counted point %d", r.Index)
					}
					seenIdx[r.Index] = true
				}
			},
			OnDone: func(res []sweep.Result, err error) {
				mu.Lock()
				defer mu.Unlock()
				if done {
					t.Errorf("OnDone fired twice")
				}
				done, doneErr, results = true, err, res
			},
		})
		if err != nil {
			t.Fatal(err)
		}

		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		workerName := func(b byte) string { return string(rune('A' + int(b%3))) }

		var grants []coordinator.Grant
		pick := func(b byte) (coordinator.Grant, bool) {
			if len(grants) == 0 {
				return coordinator.Grant{}, false
			}
			return grants[int(b)%len(grants)], true
		}

		for ops := 0; len(data) > 0 && ops < 256; ops++ {
			switch next() % 6 {
			case 0: // acquire
				if g, ok, _ := coord.Acquire(bg, workerName(next())); ok {
					grants = append(grants, g)
				}
			case 1: // renew a remembered grant (possibly long dead)
				if g, ok := pick(next()); ok {
					coord.Renew(bg, "A", g)
				}
			case 2: // time passes; leases may expire
				clock.Advance(time.Duration(next()) * ttl / 64)
			case 3: // honest completion of a remembered grant
				if g, ok := pick(next()); ok {
					coord.Complete(bg, "A", g, honestRows(points, g.Shard, shards))
				}
			case 4: // stale-epoch completion carrying poisoned metrics
				if g, ok := pick(next()); ok {
					rows := honestRows(points, g.Shard, shards)
					for i := range rows {
						rows[i].Metrics = sim.Metrics{Delivered: 1000 + rows[i].Index}
					}
					bumped := g
					bumped.Epoch++
					st, _ := coord.Complete(bg, "A", bumped, rows)
					if st == coordinator.StatusAccepted {
						t.Fatalf("stale-epoch completion accepted on shard %d", g.Shard)
					}
				}
			case 5: // malformed completion: rows describe the wrong shard
				if g, ok := pick(next()); ok {
					rows := honestRows(points, (g.Shard+1)%shards, shards)
					for i := range rows {
						rows[i].Metrics = sim.Metrics{Delivered: 2000 + rows[i].Index}
					}
					st, _ := coord.Complete(bg, "A", g, rows)
					if st == coordinator.StatusAccepted {
						t.Fatalf("wrong-shard rows accepted on shard %d", g.Shard)
					}
				}
			}
		}

		// Drain: whatever mess the interleaving left behind, an honest
		// worker fleet must still be able to finish the job — no shard may
		// be lost. Expiry is lazy, so alternate acquire attempts with clock
		// advances to flush zombie leases.
		for i := 0; i < 64; i++ {
			mu.Lock()
			d := done
			mu.Unlock()
			if d {
				break
			}
			if g, ok, _ := coord.Acquire(bg, "drain"); ok {
				coord.Complete(bg, "drain", g, honestRows(points, g.Shard, shards))
				continue
			}
			clock.Advance(ttl + time.Second)
		}

		mu.Lock()
		defer mu.Unlock()
		if !done {
			t.Fatalf("job never completed: a shard was lost (progress %+v)", job.Progress())
		}
		if doneErr != nil {
			t.Fatalf("job failed instead of completing: %v", doneErr)
		}
		if len(seenIdx) != len(points) {
			t.Fatalf("OnRows covered %d of %d points", len(seenIdx), len(points))
		}
		for i, r := range results {
			if r.Metrics.Delivered != i+1 {
				t.Fatalf("merged point %d carries foreign metrics %+v — a stale or invalid row was merged", i, r.Metrics)
			}
		}
	})
}
