package sweepserver

import (
	"log/slog"
	"runtime"
	"testing"

	"otisnet/internal/sweep"
	"otisnet/internal/sweepcache"
)

// retentionSpec is BenchmarkServerGrid's 24-point grid.
func retentionSpec() GridSpec {
	return GridSpec{
		Topologies: []sweep.TopoSpec{{Net: "sk", S: 6, D: 3, K: 2}},
		Rates:      []float64{0.05, 0.2, 0.5},
		Seeds:      []int64{1, 2, 3, 4},
		Modes:      []string{"sf", "deflect"},
		Slots:      200,
		Drain:      200,
	}
}

// runJob submits spec to s and waits for the job's terminal state.
func runJob(t *testing.T, s *Server, spec GridSpec) *job {
	t.Helper()
	j, err := s.submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	j.mu.Lock()
	for j.state == stateRunning {
		j.cond.Wait()
	}
	j.mu.Unlock()
	return j
}

// liveHeap is the heap left after a forced collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRetentionHeapIsFlat: one server takes 4000 warm submissions of a
// 24-point grid. The heap left live after 4000 jobs is within 10% of the
// heap after 1000: the server keeps only keepEnded ended jobs and the
// coordinator none, so what a job leaves behind does not add up. Without
// the bound each job left about 29 KiB live, about 85 MiB over the last
// 3000 jobs.
func TestRetentionHeapIsFlat(t *testing.T) {
	const first, total = 1000, 4000
	s := New(sweep.Runner{Workers: 2}, sweepcache.NewMemory())
	s.Logger = slog.New(slog.DiscardHandler)
	spec := retentionSpec()
	var after1k uint64
	for i := 1; i <= total; i++ {
		j := runJob(t, s, spec)
		if j.state != stateDone || len(j.events) != 24 || (i > 1 && j.cached != 24) {
			t.Fatalf("job %d ended %s with %d events, %d cached", i, j.state, len(j.events), j.cached)
		}
		if i == first {
			after1k = liveHeap()
		}
	}
	after4k := liveHeap()
	t.Logf("live heap after %d jobs: %.2f MiB, after %d: %.2f MiB", first, float64(after1k)/(1<<20), total, float64(after4k)/(1<<20))
	if float64(after4k) > 1.1*float64(after1k) {
		t.Fatalf("live heap grew from %d B after %d jobs to %d B after %d, more than 10%%", after1k, first, after4k, total)
	}
	s.mu.Lock()
	kept := len(s.jobs)
	s.mu.Unlock()
	if kept != keepEnded {
		t.Fatalf("server keeps %d jobs, want %d", kept, keepEnded)
	}
}

// TestEvictLocalPointsAfterEnd: once a local job has ended, the in-process
// workers' PointsBuilder answers its id with an error instead of handing
// out the points the job let go of.
func TestEvictLocalPointsAfterEnd(t *testing.T) {
	s := New(sweep.Runner{Workers: 2}, sweepcache.NewMemory())
	s.Logger = slog.New(slog.DiscardHandler)
	j := runJob(t, s, retentionSpec())
	if j.points != nil {
		t.Fatalf("ended job keeps %d points", len(j.points))
	}
	if st := j.status(); st.Points != 24 || st.Done != 24 {
		t.Fatalf("ended job status %+v, want 24 points done", st)
	}
	if pts, err := s.localPoints([]byte(j.id)); err == nil {
		t.Fatalf("localPoints on ended job %s gave %d points and no error", j.id, len(pts))
	}
}
