package sweep

// ComparableScaleTrioSpecs describes the paper's §5-style comparison set
// at equal scale: SK(6,3,2) with N=72, POPS(9,8) with N=72, and the
// point-to-point de Bruijn(3,4) baseline with N=81. cmd/netsim ("-net
// all") and the T7 experiment both build the trio from this single
// definition so it cannot drift.
func ComparableScaleTrioSpecs() []TopoSpec {
	return []TopoSpec{{Net: "sk", S: 6, D: 3, K: 2}, {Net: "pops", T: 9, G: 8}, {Net: "debruijn", D: 3, K: 4}}
}
