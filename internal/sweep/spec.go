package sweep

// TopoSpec is a serializable description of a simulation topology — the
// JSON-facing counterpart of cmd/netsim's -net flags, shared by the CLI
// and the sweep service (internal/sweepserver) so a grid submitted over
// HTTP builds exactly the networks the command line would. Build is
// deterministic: equal specs produce structurally identical topologies
// (and therefore equal TopologyFingerprints).

import (
	"fmt"
	"math/bits"
	"strconv"

	"otisnet/internal/kautz"
	"otisnet/internal/pops"
	"otisnet/internal/sim"
	"otisnet/internal/stackkautz"
)

// TopoSpec names one of the paper's network families and its parameters.
// Zero-valued parameters take the family's canonical defaults (the
// cmd/netsim flag defaults), so {"net":"sk"} is SK(6,3,2).
type TopoSpec struct {
	// Net selects the family: "sk" (stack-Kautz), "stackii"
	// (stack-Imase-Itoh), "pops" or "debruijn".
	Net string `json:"net"`
	// T and G are the POPS group size and group count.
	T int `json:"t,omitempty"`
	G int `json:"g,omitempty"`
	// S is the stack-network group size, D the degree, K the diameter.
	S int `json:"s,omitempty"`
	D int `json:"d,omitempty"`
	K int `json:"k,omitempty"`
	// N is the stack-Imase-Itoh group count.
	N int `json:"n,omitempty"`
}

// Canonical fills zero parameters with the cmd/netsim flag defaults,
// yielding the normalized spec Build actually constructs. Callers that
// memoize built topologies per spec (internal/sweepserver) key by the
// canonical form so parameter spellings of the same network share one
// entry.
func (ts TopoSpec) Canonical() TopoSpec { return ts.withDefaults() }

// withDefaults fills zero parameters with the cmd/netsim flag defaults.
func (ts TopoSpec) withDefaults() TopoSpec {
	def := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	def(&ts.T, 4)
	def(&ts.G, 4)
	def(&ts.S, 6)
	def(&ts.D, 3)
	def(&ts.K, 2)
	def(&ts.N, 12)
	return ts
}

// Build constructs the topology, its display name and its group size. The
// display names match cmd/netsim's, so server-submitted grids label output
// rows exactly as CLI sweeps do. A network with more than maxSize nodes or
// couplers is rejected with an error before anything is built.
func (ts TopoSpec) Build() (Topology, error) {
	ts = ts.withDefaults()
	if ts.T < 1 || ts.G < 1 || ts.S < 1 || ts.D < 1 || ts.K < 1 || ts.N < 1 {
		return Topology{}, fmt.Errorf("sweep: topology spec %+v has a non-positive parameter", ts)
	}
	switch ts.Net {
	case "sk":
		groups := one.pow(ts.D, ts.K-1).times(uint64(ts.D) + 1)
		if err := checkSize(fmt.Sprintf("SK(%d,%d,%d)", ts.S, ts.D, ts.K), groups.times(uint64(ts.S)), groups.times(uint64(ts.D)+1)); err != nil {
			return Topology{}, err
		}
		nw := stackkautz.New(ts.S, ts.D, ts.K)
		return Topology{
			Name:      fmt.Sprintf("SK(%d,%d,%d) N=%d couplers=%d", ts.S, ts.D, ts.K, nw.N(), nw.Couplers()),
			Topo:      sim.NewStackTopology(nw.StackGraph()),
			GroupSize: ts.S,
		}, nil
	case "stackii":
		groups := one.times(uint64(ts.N))
		if err := checkSize(fmt.Sprintf("stack-II(%d,%d,%d)", ts.S, ts.D, ts.N), groups.times(uint64(ts.S)), groups.times(uint64(ts.D)+1)); err != nil {
			return Topology{}, err
		}
		nw := stackkautz.NewII(ts.S, ts.D, ts.N)
		return Topology{
			Name:      fmt.Sprintf("stack-II(%d,%d,%d) N=%d couplers=%d", ts.S, ts.D, ts.N, nw.N(), nw.Couplers()),
			Topo:      sim.NewStackTopology(nw.StackGraph()),
			GroupSize: ts.S,
		}, nil
	case "pops":
		groups := one.times(uint64(ts.G))
		if err := checkSize(fmt.Sprintf("POPS(%d,%d)", ts.T, ts.G), groups.times(uint64(ts.T)), groups.times(uint64(ts.G))); err != nil {
			return Topology{}, err
		}
		nw := pops.New(ts.T, ts.G)
		return Topology{
			Name:      fmt.Sprintf("POPS(%d,%d) N=%d couplers=%d", ts.T, ts.G, nw.N(), nw.Couplers()),
			Topo:      sim.NewStackTopology(nw.StackGraph()),
			GroupSize: ts.T,
		}, nil
	case "debruijn":
		nodes := one.pow(ts.D, ts.K)
		if err := checkSize(fmt.Sprintf("deBruijn(%d,%d)", ts.D, ts.K), nodes, nodes.times(uint64(ts.D))); err != nil {
			return Topology{}, err
		}
		b := kautz.NewDeBruijn(ts.D, ts.K)
		return Topology{
			Name: fmt.Sprintf("deBruijn(%d,%d) N=%d links=%d", ts.D, ts.K, b.N(), b.Digraph().M()),
			Topo: sim.NewPointToPointTopology(b.Digraph()),
		}, nil
	default:
		return Topology{}, fmt.Errorf("sweep: unknown topology family %q (want sk, stackii, pops or debruijn)", ts.Net)
	}
}

// maxSize is the most nodes, and the most couplers, a TopoSpec builds. It
// admits the largest network the repository runs, the de Bruijn B(2,14)
// (16384 nodes, 32768 links), while a spec such as deBruijn(2,40), whose
// tables alone would take terabytes, gets an error instead of exhausting
// memory.
const maxSize = 1 << 15

// count is a node or coupler count computed without wrapping: n is exact
// unless over is set, which marks a count of 2^64 or more.
type count struct {
	n    uint64
	over bool
}

// one is the count 1, the start of every product.
var one = count{n: 1}

// times returns c·x.
func (c count) times(x uint64) count {
	hi, lo := bits.Mul64(c.n, x)
	return count{n: lo, over: c.over || hi != 0}
}

// pow returns c·d^e for d >= 1; it stops multiplying once the count is
// over, so a large e costs at most 64 steps.
func (c count) pow(d, e int) count {
	for ; e > 0 && d > 1 && !c.over; e-- {
		c = c.times(uint64(d))
	}
	return c
}

func (c count) String() string {
	if c.over {
		return "over 18446744073709551615"
	}
	return strconv.FormatUint(c.n, 10)
}

// checkSize rejects the network name when its node or coupler count is
// above maxSize.
func checkSize(name string, nodes, couplers count) error {
	for _, c := range []struct {
		what string
		n    count
	}{{"nodes", nodes}, {"couplers", couplers}} {
		if c.n.over || c.n.n > maxSize {
			return fmt.Errorf("sweep: %s would have %v %s, more than the limit of %d", name, c.n, c.what, maxSize)
		}
	}
	return nil
}
