package coordinator

import (
	"testing"

	"otisnet/internal/sweep"
)

// A worker keeps only the latest payload's points: leases of three
// distinct grids leave one memoized, repeated leases of one grid build it
// once, and going back to an earlier grid builds it again.
func TestWorkerMemoizesLatestPayloadOnly(t *testing.T) {
	builds := map[string]int{}
	w := &Worker{Build: func(p []byte) ([]sweep.Scenario, error) {
		builds[string(p)]++
		return make([]sweep.Scenario, len(p)), nil
	}}
	lease := func(p string) {
		t.Helper()
		if pts, err := w.pointsFor([]byte(p)); err != nil || len(pts) != len(p) {
			t.Fatalf("lease of %q: %d points, %v", p, len(pts), err)
		}
	}
	for _, p := range []string{"a", "bb", "ccc"} {
		lease(p)
	}
	if w.payload != "ccc" || len(w.points) != 3 {
		t.Fatalf("after three grids the worker holds %q with %d points, want only \"ccc\" with 3", w.payload, len(w.points))
	}
	for i := 0; i < 5; i++ {
		lease("ccc")
	}
	if builds["ccc"] != 1 {
		t.Fatalf("six leases of one grid built it %d times, want 1", builds["ccc"])
	}
	lease("a")
	if builds["a"] != 2 || w.payload != "a" {
		t.Fatalf("returning to an earlier grid: %d builds, memo %q; want 2 builds, memo \"a\"", builds["a"], w.payload)
	}
}
