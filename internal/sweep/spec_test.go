package sweep_test

import (
	"testing"

	"otisnet/internal/sweep"
)

// oversizedSpecs are networks of every family whose node or coupler count
// is above the ceiling TopoSpec.Build enforces, each with the exact error
// it gets; deBruijn(2,70) has more nodes than a uint64 counts.
var oversizedSpecs = []struct {
	spec sweep.TopoSpec
	want string
}{
	{sweep.TopoSpec{Net: "sk", S: 4, D: 2, K: 14}, "sweep: SK(4,2,14) would have 98304 nodes, more than the limit of 32768"},
	{sweep.TopoSpec{Net: "sk", S: 1, D: 200, K: 1}, "sweep: SK(1,200,1) would have 40401 couplers, more than the limit of 32768"},
	{sweep.TopoSpec{Net: "stackii", S: 100, D: 2, N: 1000}, "sweep: stack-II(100,2,1000) would have 100000 nodes, more than the limit of 32768"},
	{sweep.TopoSpec{Net: "pops", T: 1000, G: 40}, "sweep: POPS(1000,40) would have 40000 nodes, more than the limit of 32768"},
	{sweep.TopoSpec{Net: "pops", T: 1, G: 200}, "sweep: POPS(1,200) would have 40000 couplers, more than the limit of 32768"},
	{sweep.TopoSpec{Net: "debruijn", D: 2, K: 40}, "sweep: deBruijn(2,40) would have 1099511627776 nodes, more than the limit of 32768"},
	{sweep.TopoSpec{Net: "debruijn", D: 2, K: 70}, "sweep: deBruijn(2,70) would have over 18446744073709551615 nodes, more than the limit of 32768"},
}

// TestBuildRejectsOversizedTopologies: every family's count is taken
// before anything is built, so a spec over the ceiling returns an error
// naming the count and the limit instead of exhausting memory, and small
// members of each family still build.
func TestBuildRejectsOversizedTopologies(t *testing.T) {
	for _, tc := range oversizedSpecs {
		if _, err := tc.spec.Build(); err == nil || err.Error() != tc.want {
			t.Errorf("%+v: error %v, want %q", tc.spec, err, tc.want)
		}
	}
	for _, spec := range []sweep.TopoSpec{
		{Net: "sk", S: 2, D: 2, K: 3},
		{Net: "stackii", S: 2, D: 2, N: 5},
		{Net: "pops", T: 2, G: 3},
		{Net: "debruijn", D: 2, K: 3},
	} {
		if _, err := spec.Build(); err != nil {
			t.Errorf("%+v: %v", spec, err)
		}
	}
}
