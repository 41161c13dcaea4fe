// Benchmarks regenerating every figure (F1-F12) and table-style claim
// (T1-T12) of the paper; DESIGN.md maps each benchmark to the paper
// artifact and the implementing modules. Run:
//
//	go test -bench=. -benchmem
package otisnet

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"unsafe"

	"otisnet/internal/analysis"
	"otisnet/internal/collective"
	"otisnet/internal/control"
	"otisnet/internal/coordinator"
	"otisnet/internal/core"
	"otisnet/internal/digraph"
	"otisnet/internal/embed"
	"otisnet/internal/faults"
	"otisnet/internal/hypergraph"
	"otisnet/internal/imase"
	"otisnet/internal/kautz"
	"otisnet/internal/legacysim"
	"otisnet/internal/ops"
	"otisnet/internal/optical"
	"otisnet/internal/otis"
	"otisnet/internal/otisnets"
	"otisnet/internal/pops"
	"otisnet/internal/sim"
	"otisnet/internal/stackkautz"
	"otisnet/internal/sweep"
	"otisnet/internal/sweepcache"
	"otisnet/internal/sweepserver"
	"otisnet/internal/workload"
)

// BenchmarkFig01OTISPermutation builds the OTIS(3,6) transpose of Figure 1
// and checks it is a bijection.
func BenchmarkFig01OTISPermutation(b *testing.B) {
	o := otis.New(3, 6)
	for i := 0; i < b.N; i++ {
		p := o.Permutation()
		if !otis.IsPermutation(p) {
			b.Fatal("not a permutation")
		}
	}
}

// BenchmarkFig02OPSBroadcast performs the degree-4 coupler broadcast of
// Figure 2.
func BenchmarkFig02OPSBroadcast(b *testing.B) {
	c := ops.NewDegree(4)
	for i := 0; i < b.N; i++ {
		out := c.Broadcast(i%4, 1.0)
		if out[0] != 0.25 {
			b.Fatal("wrong split")
		}
	}
}

// BenchmarkFig03Hyperarc builds the hyperarc model of Figure 3 and checks
// one-to-many reachability.
func BenchmarkFig03Hyperarc(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := hypergraph.New(8)
		h.AddHyperarc([]int{0, 1, 2, 3}, []int{4, 5, 6, 7})
		if !h.Reachable(0, 7) {
			b.Fatal("unreachable")
		}
	}
}

// BenchmarkFig04POPSBuild constructs POPS(4,2) of Figure 4.
func BenchmarkFig04POPSBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := pops.New(4, 2)
		if p.Couplers() != 4 {
			b.Fatal("wrong coupler count")
		}
	}
}

// BenchmarkFig05StackModel builds the ς(4,K+2) model of Figure 5 and
// checks single-hop diameter.
func BenchmarkFig05StackModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sg := hypergraph.NewStackGraph(4, digraph.CompleteWithLoops(2))
		if sg.Diameter() != 1 {
			b.Fatal("wrong diameter")
		}
	}
}

// BenchmarkFig06LineDigraph iterates L^2(K3) = KG(2,3) (Figure 6) and
// verifies the isomorphism.
func BenchmarkFig06LineDigraph(b *testing.B) {
	kg := kautz.New(2, 3)
	for i := 0; i < b.N; i++ {
		l := digraph.LineDigraphPower(digraph.Complete(3), 2)
		if !digraph.Isomorphic(kg.Digraph(), l) {
			b.Fatal("not isomorphic")
		}
	}
}

// BenchmarkFig07StackKautzBuild constructs SK(6,3,2) of Figure 7.
func BenchmarkFig07StackKautzBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := stackkautz.New(6, 3, 2)
		if n.N() != 72 {
			b.Fatal("wrong size")
		}
	}
}

// BenchmarkFig08GroupInput assembles the Figure 8 building block
// (6 processors -> 4 multiplexers via OTIS(6,4)).
func BenchmarkFig08GroupInput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		nl := optical.NewNetlist()
		txs, muxes := core.BuildGroupInput(nl, 6, 4, "g")
		if len(txs) != 6 || len(muxes) != 4 {
			b.Fatal("wrong block")
		}
	}
}

// BenchmarkFig09GroupOutput assembles the Figure 9 building block
// (3 splitters -> 5 processors via OTIS(3,5)).
func BenchmarkFig09GroupOutput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		nl := optical.NewNetlist()
		sp, rx := core.BuildGroupOutput(nl, 3, 5, "g")
		if len(sp) != 3 || len(rx) != 5 {
			b.Fatal("wrong block")
		}
	}
}

// BenchmarkFig10Prop1 verifies Proposition 1 for II(3,12) via OTIS(3,12)
// (Figure 10), exactly over all nodes.
func BenchmarkFig10Prop1(b *testing.B) {
	r := otis.NewImaseRealization(3, 12)
	for i := 0; i < b.N; i++ {
		if err := r.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11POPSDesign builds and fully verifies the POPS(4,2) optical
// design of Figure 11 (trace of every beam).
func BenchmarkFig11POPSDesign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := core.DesignPOPS(4, 2)
		if err := d.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12SKDesign builds and fully verifies the SK(6,3,2) optical
// design of Figure 12 (trace of all 288 beams through 277 components).
func BenchmarkFig12SKDesign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := core.DesignStackKautz(6, 3, 2)
		if err := d.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT1KautzScaling builds the Kautz parameter table of §2.5.
func BenchmarkT1KautzScaling(b *testing.B) {
	params := []struct{ d, k int }{{2, 3}, {3, 2}, {3, 3}, {4, 2}}
	for i := 0; i < b.N; i++ {
		for _, p := range params {
			kg := kautz.New(p.d, p.k)
			if kg.Digraph().Diameter() != p.k {
				b.Fatal("wrong diameter")
			}
		}
	}
}

// BenchmarkT2IIDiameter sweeps Imase-Itoh diameters against the
// ⌈log_d n⌉ bound of §2.6.
func BenchmarkT2IIDiameter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for n := 5; n <= 30; n++ {
			ii := imase.New(3, n)
			if d := ii.Digraph().Diameter(); d > imase.DiameterBound(3, n) {
				b.Fatal("bound violated")
			}
		}
	}
}

// BenchmarkT3POPSCount recomputes POPS parameter identities.
func BenchmarkT3POPSCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := pops.New(16, 8)
		if p.N() != 128 || p.Couplers() != 64 {
			b.Fatal("wrong parameters")
		}
	}
}

// BenchmarkT4SKCount recomputes stack-Kautz parameter identities.
func BenchmarkT4SKCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := stackkautz.New(8, 3, 3)
		if n.N() != 288 || n.Couplers() != 144 {
			b.Fatal("wrong parameters")
		}
	}
}

// BenchmarkT5DesignBOM builds the §4 designs and extracts their bills of
// materials.
func BenchmarkT5DesignBOM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := core.DesignStackKautz(6, 3, 2)
		bom, _ := d.NL.BOM()
		if bom["OTIS(6,4)"] != 12 || bom["MUX(6)"] != 48 {
			b.Fatal("wrong BOM")
		}
	}
}

// BenchmarkT6FaultRouting measures fault-tolerant routing (≤ k+2 hops,
// d-1 faults) on KG(3,3).
func BenchmarkT6FaultRouting(b *testing.B) {
	kg := kautz.New(3, 3)
	faulty := map[int]bool{5: true, 17: true}
	fs := func(w kautz.Label) bool { return faulty[kg.Index(w)] }
	for i := 0; i < b.N; i++ {
		src := kg.LabelOf(i % kg.N())
		dst := kg.LabelOf((i*7 + 3) % kg.N())
		if kg.Index(src) == kg.Index(dst) || faulty[kg.Index(src)] || faulty[kg.Index(dst)] {
			continue
		}
		p, _ := kg.RouteAvoiding(src, dst, fs)
		if p == nil || len(p)-1 > 5 {
			b.Fatal("fault routing failed")
		}
	}
}

// BenchmarkT7SimThroughput runs the uniform-traffic comparison point
// (SK(6,3,2), rate 0.2) of the simulation campaign.
func BenchmarkT7SimThroughput(b *testing.B) {
	topo := sim.NewStackTopology(stackkautz.New(6, 3, 2).StackGraph())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := sim.Run(topo, sim.UniformTraffic{Rate: 0.2}, 200, 200, sim.Config{Seed: int64(i)})
		if m.Delivered == 0 {
			b.Fatal("nothing delivered")
		}
	}
}

// BenchmarkT7LegacyEngine runs the identical T7 workload on the frozen
// pre-compilation reference engine (internal/legacysim: interface dispatch
// per routing decision, O(N) queue scan and O(M) coupler clear per slot).
// Together with BenchmarkT7SimThroughput it measures the compiled engine's
// speedup on the same machine in the same run (frozen in BENCH_4.json).
func BenchmarkT7LegacyEngine(b *testing.B) {
	topo := sim.NewStackTopology(stackkautz.New(6, 3, 2).StackGraph())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := legacysim.Run(topo, sim.UniformTraffic{Rate: 0.2}, 200, 200, sim.Config{Seed: int64(i)})
		if m.Delivered == 0 {
			b.Fatal("nothing delivered")
		}
	}
}

// BenchmarkStepLargeN measures the O(active)-stepping win at production
// scale: point-to-point Kautz networks of thousands of nodes under a fixed
// absolute load (64 fresh messages per slot regardless of N). With the
// active-node list and touched-coupler bitmap, slot cost tracks the number
// of in-flight messages, so ns/op stays roughly flat as N doubles — the
// legacy engine's O(N + M) per-slot scans would double it. The compiled
// engine borrows the topology's route table and distance rows, so even at
// N ≈ 12k compilation is O(N + M) and Step allocates nothing.
func BenchmarkStepLargeN(b *testing.B) {
	for _, k := range []int{12, 13} {
		kg := kautz.New(2, k)
		b.Run(fmt.Sprintf("KG(2,%d)-N=%d", k, kg.N()), func(b *testing.B) {
			topo := sim.NewPointToPointTopology(kg.Digraph())
			e := sim.NewEngine(topo, sim.Config{Seed: 1})
			n := topo.Nodes()
			slot := 0
			const perSlot = 64
			step := func() {
				off := 1 + (slot*7919)%(n-1)
				base := (slot * 131) % n
				for j := 0; j < perSlot; j++ {
					u := (base + j*97) % n
					e.Inject(u, (u+off)%n)
				}
				e.Step()
				slot++
			}
			for i := 0; i < 300; i++ { // warmup to steady in-flight population
				step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

// BenchmarkEngineRunLargeN runs whole scenarios of the sk6144-single
// workload on one reused engine: SK(4,2,10) (N=6144, 4608 couplers),
// uniform load 0.01, 2000 slots plus up to 2000 drain slots. Engine.Run
// draws the traffic on a producer goroutine while the caller steps, so on
// two or more CPUs generation overlaps the slot loop. slots/s is simulated
// slots per wall second. Every iteration repeats the warm-up's scenario,
// so queues never pass its high-water marks and a scenario allocates
// nothing.
func BenchmarkEngineRunLargeN(b *testing.B) {
	topo := sim.NewStackTopology(stackkautz.New(4, 2, 10).StackGraph())
	cfg := sim.Config{Seed: 1}
	e := sim.NewEngine(topo, cfg)
	var traffic sim.Traffic = sim.UniformTraffic{Rate: 0.01}
	e.Run(traffic, 2000, 2000, cfg) // warm-up to high-water marks
	slots := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := e.Run(traffic, 2000, 2000, cfg)
		if m.Backlog != 0 || m.Delivered == 0 {
			b.Fatalf("implausible run: %v", m)
		}
		slots += m.Slots
	}
	b.ReportMetric(float64(slots)/b.Elapsed().Seconds(), "slots/s")
}

// BenchmarkNewStackTopology times the route-table build: the route
// blocks, one cell per pair of row and column classes in each of two
// planes, a dictionary-coded route plane and a raw distance plane, whose
// distances come from reach sets advanced one hop level per pass for all
// row classes at once, each row packed as soon as its route scan ends.
// SK(4,2,8) (N=1536) and SK(4,2,10) (N=6144, the sk6144-single topology)
// have one class per group; the point-to-point de Bruijn B(2,12) (N=4096)
// has one per node. The graph is built outside the timer. table-MiB is
// what the topology keeps (tableMiB); route-MiB is the part of it that
// head-of-line resolution reads on every step (routeMiB), so it shows
// whether a topology's hot routing state fits in L2.
func BenchmarkNewStackTopology(b *testing.B) {
	for _, tc := range []struct {
		name  string
		n     int
		build func() sim.Topology
	}{
		{"SK(4,2,8)", 1536, stackBuild(4, 2, 8)},
		{"SK(4,2,10)", 6144, stackBuild(4, 2, 10)},
		{"deBruijn(2,12)", 4096, func() func() sim.Topology {
			g := kautz.NewDeBruijn(2, 12).Digraph()
			return func() sim.Topology { return sim.NewPointToPointTopology(g) }
		}()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var topo sim.Topology
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if topo = tc.build(); topo.Nodes() != tc.n {
					b.Fatal("wrong size")
				}
			}
			b.ReportMetric(tableMiB(topo.RouteBlocks()), "table-MiB")
			b.ReportMetric(routeMiB(topo.RouteBlocks()), "route-MiB")
		})
	}
}

// stackBuild builds the stack graph of SK(s,d,k) once and returns a
// function that builds its topology.
func stackBuild(s, d, k int) func() sim.Topology {
	sg := stackkautz.New(s, d, k).StackGraph()
	return func() sim.Topology { return sim.NewStackTopology(sg) }
}

// tableMiB is the size of a topology's route blocks, in MiB: both packed
// planes, the route dictionaries with their offsets, and the class maps.
func tableMiB(bl *sim.RouteBlocks) float64 {
	return routeMiB(bl) + float64(8*len(bl.Dists)+4*(len(bl.Row)+len(bl.Col)))/(1<<20)
}

// routeMiB is the size of a topology's route plane, in MiB: the packed
// route cells and the route dictionaries with their offsets.
func routeMiB(bl *sim.RouteBlocks) float64 {
	bytes := 8*len(bl.Cells) + len(bl.Dict)*int(unsafe.Sizeof(sim.RouteEntry{})) + 4*len(bl.Base)
	return float64(bytes) / (1 << 20)
}

// BenchmarkFaultEventLargeN times one fault event on SK(4,2,8) (N=1536)
// and on SK(4,2,10) (N=6144): Advance fails 2 nodes at once and rebuilds
// the route blocks from the live structure into a reused buffer with the
// wrapper's reused sim.RouteBuilder, and Reset rewinds the wrapper to the
// base topology's blocks for the next scenario. table-MiB is the size of
// the blocks the event built, counted as for BenchmarkNewStackTopology.
func BenchmarkFaultEventLargeN(b *testing.B) {
	for _, k := range []int{8, 10} {
		topo := stackBuild(4, 2, k)()
		b.Run(fmt.Sprintf("SK(4,2,%d)", k), func(b *testing.B) {
			ft := faults.Wrap(topo, faults.Random(faults.KindNode, 2, 0, topo, 1))
			var bl *sim.RouteBlocks
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !ft.Advance(0).Changed {
					b.Fatal("no event fired")
				}
				bl = ft.RouteBlocks()
				ft.Reset()
			}
			b.ReportMetric(tableMiB(bl), "table-MiB")
		})
	}
}

// BenchmarkStepAllocFree drives the engine at a sustained sub-saturation
// load and verifies the simulation hot path is allocation-free in steady
// state: the "step" variant measures Engine.Step alone under a
// deterministic injection pattern; the "run-loop" variant measures the
// full sim.Run inner loop (Traffic.Generate into a reusable scratch,
// Inject, Step). After warmup the message pool, arbitration scratch and
// injection scratch have reached their high-water marks, so both variants
// must report 0 B/op.
func BenchmarkStepAllocFree(b *testing.B) {
	topo := sim.NewStackTopology(stackkautz.New(6, 3, 2).StackGraph())
	n := topo.Nodes()
	b.Run("step", func(b *testing.B) {
		e := sim.NewEngine(topo, sim.Config{Seed: 1})
		slot := 0
		step := func() {
			// Rotating sources and destinations at per-node rate 1/8: below
			// SK(6,3,2) saturation with no persistent hot flow, so queue
			// lengths — and therefore the message pool — stay bounded.
			const stride = 8
			off := 1 + (slot*7)%(n-1)
			for u := slot % stride; u < n; u += stride {
				e.Inject(u, (u+off)%n)
			}
			e.Step()
			slot++
		}
		for i := 0; i < 2000; i++ { // warmup to steady state
			step()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step()
		}
	})
	b.Run("run-loop", func(b *testing.B) {
		e := sim.NewEngine(topo, sim.Config{Seed: 1})
		traffic := sim.UniformTraffic{Rate: 0.15} // sub-saturation
		rng := rand.New(rand.NewSource(2))
		var buf []sim.Injection
		slot := 0
		step := func() {
			buf = traffic.Generate(buf[:0], slot, n, rng)
			for _, inj := range buf {
				e.Inject(inj.Src, inj.Dst)
			}
			e.Step()
			slot++
		}
		for i := 0; i < 5000; i++ { // warmup to steady state
			step()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step()
		}
	})
}

// BenchmarkUniformGenerate times one slot of uniform Bernoulli traffic
// generation, on its own: "oracle" is UniformTraffic.Generate's Float64
// loop, "sampler" the block-replay sim.UniformStream that Engine runs
// draw through (the same injections from the same seed).
// N=6144 p=0.01 is the paper's SK(4,2,10) at the sk6144-single load; N=54
// p=0.6 is a small network at high load, where Intn dominates.
func BenchmarkUniformGenerate(b *testing.B) {
	for _, c := range []struct {
		n    int
		rate float64
	}{{6144, 0.01}, {54, 0.6}} {
		name := fmt.Sprintf("N=%d/p=%v", c.n, c.rate)
		b.Run("oracle/"+name, func(b *testing.B) {
			tr, rng := sim.UniformTraffic{Rate: c.rate}, rand.New(rand.NewSource(1))
			var buf []sim.Injection
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf = tr.Generate(buf[:0], i, c.n, rng)
			}
		})
		b.Run("sampler/"+name, func(b *testing.B) {
			var s sim.UniformStream
			s.Start(rand.New(rand.NewSource(1)), c.rate)
			var buf []sim.Injection
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf = s.AppendSlot(buf[:0], c.n)
			}
		})
	}
}

// BenchmarkT6DynamicFaults is the live version of BenchmarkT6FaultRouting:
// SK(6,3,2) with d-1 = 2 whole groups failing mid-run inside the engine,
// which purges stranded messages and reroutes the survivors in ≤ k+2 hops
// on the surviving structure (experiment T6D).
func BenchmarkT6DynamicFaults(b *testing.B) {
	const s, k = 6, 2
	nw := stackkautz.New(s, 3, k)
	topo := sim.NewStackTopology(nw.StackGraph())
	var nodes []int
	for _, g := range []int{2, 7} {
		for m := 0; m < s; m++ {
			nodes = append(nodes, g*s+m)
		}
	}
	ft := faults.Wrap(topo, faults.FixedNodes(100, nodes...))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := sim.Run(ft, sim.UniformTraffic{Rate: 0.2}, 300, 300, sim.Config{Seed: int64(i)})
		if m.Delivered == 0 || m.LostToFaults+m.Unroutable == 0 {
			b.Fatal("fault injection had no effect")
		}
	}
}

// BenchmarkFaultSweepDegradation fans the fault-count degradation sweep
// (node faults 0..3 x 2 seeds on SK(6,3,2)) across the worker pool and
// aggregates the throughput-degradation curve.
func BenchmarkFaultSweepDegradation(b *testing.B) {
	specs := make([]faults.Spec, 0, 4)
	for f := 0; f <= 3; f++ {
		specs = append(specs, faults.Spec{Kind: faults.KindNode, Count: f, Slot: 0, Seed: 99})
	}
	grid := sweep.Grid{
		Topologies: []sweep.Topology{
			{Name: "SK(6,3,2)", Topo: sim.NewStackTopology(stackkautz.New(6, 3, 2).StackGraph())},
		},
		Rates:  []float64{0.5},
		Seeds:  []int64{1, 2},
		Slots:  200,
		Drain:  200,
		Faults: specs,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curve := sweep.Aggregate(sweep.Runner{}.RunGrid(grid))
		if len(curve) != 4 {
			b.Fatalf("expected 4 curve points, got %d", len(curve))
		}
	}
}

// sweepGridT7 is the 24-point scenario grid (3 loads x 4 seeds x 2 modes)
// shared by BenchmarkSweepGrid and its frozen-engine counterpart.
func sweepGridT7() sweep.Grid {
	return sweep.Grid{
		Topologies: []sweep.Topology{
			{Name: "SK(6,3,2)", Topo: sim.NewStackTopology(stackkautz.New(6, 3, 2).StackGraph())},
		},
		Rates: []float64{0.05, 0.2, 0.5},
		Seeds: []int64{1, 2, 3, 4},
		Modes: []sweep.Mode{sweep.StoreAndForward, sweep.Deflection},
		Slots: 200,
		Drain: 200,
	}
}

// BenchmarkSweepGrid fans a 24-point scenario grid (3 loads x 4 seeds x
// 2 modes) across the sweep worker pool — each worker reusing one compiled
// engine across its scenarios — and aggregates the curve.
func BenchmarkSweepGrid(b *testing.B) {
	grid := sweepGridT7()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curve := sweep.Aggregate(sweep.Runner{}.RunGrid(grid))
		if len(curve) != 6 {
			b.Fatalf("expected 6 curve points, got %d", len(curve))
		}
	}
}

// BenchmarkSweepGridLegacyEngine runs the identical 24-point grid
// scenario by scenario on the frozen reference engine (one fresh engine
// per scenario, as the pre-reuse sweep did), the same-machine baseline
// for BenchmarkSweepGrid (frozen in BENCH_4.json).
func BenchmarkSweepGridLegacyEngine(b *testing.B) {
	grid := sweepGridT7()
	points := grid.Points()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := make([]sweep.Result, len(points))
		for j, p := range points {
			results[j] = sweep.Result{
				Scenario: p,
				Metrics:  legacysim.Run(p.Topology.Topo, sim.UniformTraffic{Rate: p.Rate}, p.Slots, p.Drain, p.Config()),
			}
		}
		curve := sweep.Aggregate(results)
		if len(curve) != 6 {
			b.Fatalf("expected 6 curve points, got %d", len(curve))
		}
	}
}

// BenchmarkSweepCachedGrid runs the identical 24-point grid against a
// warmed content-addressed result cache (internal/sweepcache, the PR 5
// service layer): every point is a cache hit, so the iteration cost is
// pure orchestration — key hashing, lookups and aggregation — with zero
// simulated slots. Paired with BenchmarkSweepGrid (the cold, cacheless
// run of the same grid) it gives the "warm_cache_speedup"; the
// service-layer contract is >= 10x.
func BenchmarkSweepCachedGrid(b *testing.B) {
	grid := sweepGridT7()
	points := grid.Points()
	cache := sweepcache.NewMemory()
	if _, err := (sweep.Runner{}).RunCached(context.Background(), points, cache, nil); err != nil {
		b.Fatal(err)
	}
	coldMisses := cache.Stats().Misses
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := sweep.Runner{}.RunCached(context.Background(), points, cache, nil)
		if err != nil {
			b.Fatal(err)
		}
		curve := sweep.Aggregate(results)
		if len(curve) != 6 {
			b.Fatalf("expected 6 curve points, got %d", len(curve))
		}
	}
	b.StopTimer()
	if st := cache.Stats(); st.Misses != coldMisses {
		b.Fatalf("warm-cache grid computed %d points, want 0", st.Misses-coldMisses)
	}
}

// BenchmarkServerGrid is BenchmarkSweepCachedGrid's 24-point grid
// submitted to the sweep server over loopback HTTP without shards, timed
// from submit to the end of its result stream: the job path a `netsim
// serve` client takes, through the in-process workers. warm resubmits the
// grid onto a cache that holds every point; cold gives each job a fresh
// server and cache.
func BenchmarkServerGrid(b *testing.B) {
	body, err := json.Marshal(sweepserver.GridSpec{
		Topologies: []sweep.TopoSpec{{Net: "sk", S: 6, D: 3, K: 2}},
		Rates:      []float64{0.05, 0.2, 0.5},
		Seeds:      []int64{1, 2, 3, 4},
		Modes:      []string{"sf", "deflect"},
		Slots:      200,
		Drain:      200,
	})
	if err != nil {
		b.Fatal(err)
	}
	serve := func() *httptest.Server {
		srv := sweepserver.New(sweep.Runner{}, sweepcache.NewMemory())
		srv.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
		return httptest.NewServer(srv.Handler())
	}
	job := func(url string) {
		resp, err := http.Post(url+"/api/v1/sweeps", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var st struct{ ID string }
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			b.Fatalf("submit: %d %v", resp.StatusCode, err)
		}
		resp, err = http.Get(url + "/api/v1/sweeps/" + st.ID + "/stream")
		if err != nil {
			b.Fatal(err)
		}
		lines, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if n := bytes.Count(lines, []byte("\n")); err != nil || n != 24 {
			b.Fatalf("stream: %d lines, %v", n, err)
		}
	}
	b.Run("warm", func(b *testing.B) {
		ts := serve()
		defer ts.Close()
		job(ts.URL)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			job(ts.URL)
		}
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ts := serve()
			b.StartTimer()
			job(ts.URL)
			b.StopTimer()
			ts.Close()
			b.StartTimer()
		}
	})
}

// BenchmarkCacheKey hashes one point of the paper-trio grid (SK(6,3,2),
// hotspot workload, a 2-node fault at slot 500) — the key every warm
// lease looks up, and the server's merge checks once per row. The
// strconv sub-benchmark is sweep.Scenario.CacheKey (contract: at most
// 1 alloc/op); fmt-oracle is the fmt.Fprintf encoder it replaced
// (cachekey_test.go), for the speedup in the same run.
func BenchmarkCacheKey(b *testing.B) {
	topo, err := sweep.TopoSpec{Net: "sk", S: 6, D: 3, K: 2}.Build()
	if err != nil {
		b.Fatal(err)
	}
	p := sweep.Scenario{Topology: topo, Rate: 0.3, Seed: 1, Mode: sweep.Deflection, Wavelengths: 2,
		Slots: 2000, Drain: 1000,
		Fault:    faults.Spec{Kind: faults.KindNode, Count: 2, Slot: 500},
		Workload: workload.Spec{Kind: workload.KindHotspot, HotGroup: 1, Fraction: 0.4}}
	if p.CacheKey() != fmtCacheKey(p) { // also memoizes the fingerprint
		b.Fatal("CacheKey disagrees with the fmt oracle")
	}
	for _, enc := range []struct {
		name string
		key  func(sweep.Scenario) string
	}{{"strconv", sweep.Scenario.CacheKey}, {"fmt-oracle", fmtCacheKey}} {
		b.Run(enc.name, func(b *testing.B) {
			b.ReportAllocs()
			var key string
			for i := 0; i < b.N; i++ {
				key = enc.key(p)
			}
			if len(key) != 64 {
				b.Fatalf("key %q is not a hex sha256", key)
			}
		})
	}
}

// BenchmarkCompleteBody encodes and decodes one trio-warm completion body
// per op: 54 cached rows (432 points over 8 shards), each with a 64-hex
// key. The codec sub-benchmark is CompleteRequest.AppendJSON into a
// presized buffer plus ParseCanonical, the path Client.Complete and the
// complete endpoint take; encoding-json is json.Marshal plus DecodeStrict,
// the path every body took before and non-canonical bodies still take.
func BenchmarkCompleteBody(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	req := coordinator.CompleteRequest{LeaseID: "L123", Job: "s17", Shard: 5, Epoch: 2, Worker: "w-1",
		Rows: make([]sweep.ShardResult, 54)}
	for i := range req.Rows {
		var key [32]byte
		rng.Read(key[:])
		req.Rows[i] = sweep.ShardResult{Index: 5 + 8*i, Key: hex.EncodeToString(key[:]), Cached: true,
			Metrics: sim.Metrics{Slots: 3000, Injected: 20000 + rng.Intn(40000), Delivered: 20000 + rng.Intn(40000),
				Dropped: rng.Intn(100), TotalLatency: rng.Intn(1 << 22), TotalHops: rng.Intn(1 << 20),
				PeakQueue: rng.Intn(50), Backlog: rng.Intn(500)}}
	}
	canon := req.AppendJSON(nil)
	if std, _ := json.Marshal(&req); !bytes.Equal(canon, std) {
		b.Fatal("AppendJSON disagrees with json.Marshal")
	}
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(canon)))
		for i := 0; i < b.N; i++ {
			body := req.AppendJSON(make([]byte, 0, 128+len(req.Rows)*384))
			var got coordinator.CompleteRequest
			if !got.ParseCanonical(body) {
				b.Fatal("ParseCanonical turned down a canonical body")
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(canon)))
		for i := 0; i < b.N; i++ {
			body, err := json.Marshal(&req)
			if err != nil {
				b.Fatal(err)
			}
			var got coordinator.CompleteRequest
			if err := coordinator.DecodeStrict(bytes.NewReader(body), &got); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkT8OTISAsII identifies OTIS(3,12) with II(3,12) and re-verifies
// Proposition 1 (the conclusion's corollary).
func BenchmarkT8OTISAsII(b *testing.B) {
	o := otis.New(3, 12)
	for i := 0; i < b.N; i++ {
		d, n := o.AsImaseItoh()
		if err := otis.NewImaseRealization(d, n).Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationIsoRefinement compares isomorphism testing with the
// paper-scale graphs (the refinement ablation DESIGN.md calls out): KG(3,3)
// against a relabeled copy.
func BenchmarkAblationIsoRefinement(b *testing.B) {
	g := kautz.New(3, 3).Digraph()
	h := g.Clone()
	for i := 0; i < b.N; i++ {
		if !digraph.Isomorphic(g, h) {
			b.Fatal("must be isomorphic")
		}
	}
}

// BenchmarkAblationDeflection compares store-and-forward against
// hot-potato deflection on the same saturated workload.
func BenchmarkAblationDeflection(b *testing.B) {
	topo := sim.NewStackTopology(stackkautz.New(6, 3, 2).StackGraph())
	b.Run("store-and-forward", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sim.Run(topo, sim.UniformTraffic{Rate: 0.8}, 200, 100, sim.Config{Seed: 1})
		}
	})
	b.Run("hot-potato", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sim.Run(topo, sim.UniformTraffic{Rate: 0.8}, 200, 100, sim.Config{Seed: 1, Deflection: true})
		}
	})
}

// BenchmarkT9Collectives builds and executes the SK(6,3,2) broadcast
// schedule (experiment T9).
func BenchmarkT9Collectives(b *testing.B) {
	n := stackkautz.New(6, 3, 2)
	src := stackkautz.Address{Group: n.Kautz().LabelOf(0), Member: 0}
	for i := 0; i < b.N; i++ {
		s := collective.SKBroadcast(n, src)
		if !s.Execute(n.StackGraph()).BroadcastComplete(n.NodeID(src)) {
			b.Fatal("broadcast incomplete")
		}
	}
}

// BenchmarkT9DynamicCollective is the live version of
// BenchmarkT9Collectives (experiment T9D): the SK(6,3,2) broadcast schedule
// is expanded into unicast messages and replayed through the engine, where
// every round must deliver its full intent under real coupler arbitration
// and the dissemination must complete in at least the lower-bound number of
// rounds.
func BenchmarkT9DynamicCollective(b *testing.B) {
	nw := stackkautz.New(6, 3, 2)
	src := stackkautz.Address{Group: nw.Kautz().LabelOf(0), Member: 0}
	sched := collective.SKBroadcast(nw, src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := workload.ReplayBroadcast(nw.StackGraph(), sched, nw.NodeID(src), sim.Config{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Complete || len(res.Rounds) < res.LowerBound {
			b.Fatal("live broadcast replay incomplete or below the lower bound")
		}
	}
}

// BenchmarkWorkloadSweep fans the workload axis (uniform, transpose,
// hotspot, bursty x 2 seeds on SK(6,3,2)) across the sweep worker pool and
// aggregates one curve point per workload kind.
func BenchmarkWorkloadSweep(b *testing.B) {
	grid := sweep.Grid{
		Topologies: []sweep.Topology{
			{Name: "SK(6,3,2)", Topo: sim.NewStackTopology(stackkautz.New(6, 3, 2).StackGraph()), GroupSize: 6},
		},
		Rates: []float64{0.2},
		Seeds: []int64{1, 2},
		Slots: 200,
		Drain: 200,
		Workloads: []workload.Spec{
			{},
			{Kind: workload.KindTranspose},
			{Kind: workload.KindHotspot, HotGroup: 2, Fraction: 0.4},
			{Kind: workload.KindBursty, MeanOn: 20, MeanOff: 60, OffFactor: 0.1},
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curve := sweep.Aggregate(sweep.Runner{}.RunGrid(grid))
		if len(curve) != 4 {
			b.Fatalf("expected 4 curve points, got %d", len(curve))
		}
	}
}

// BenchmarkT10TDMAFrame builds and validates the SK(6,3,2) TDMA access
// frame (experiment T10).
func BenchmarkT10TDMAFrame(b *testing.B) {
	sg := stackkautz.New(6, 3, 2).StackGraph()
	for i := 0; i < b.N; i++ {
		frame := control.TDMAFrame(sg)
		if err := frame.Validate(sg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT11WDM runs the saturated WDM comparison point (w = 4) of
// experiment T11.
func BenchmarkT11WDM(b *testing.B) {
	topo := sim.NewStackTopology(stackkautz.New(6, 3, 2).StackGraph())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := sim.Run(topo, sim.UniformTraffic{Rate: 0.9}, 200, 0,
			sim.Config{Seed: int64(i), Wavelengths: 4})
		if m.Delivered == 0 {
			b.Fatal("nothing delivered")
		}
	}
}

// BenchmarkT12CostModel computes the full cost-model table of experiment
// T12.
func BenchmarkT12CostModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := []analysis.Cost{
			analysis.POPSCost(16, 8),
			analysis.StackKautzCost(6, 3, 2),
			analysis.DeBruijnCost(3, 4),
		}
		if analysis.FormatTable(rows) == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkT12OTISNetworks builds the OTIS-Hypercube of [24] and computes
// its diameter (experiment T12, conclusion's corollary).
func BenchmarkT12OTISNetworks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := otisnets.New(otisnets.NewHypercubeFactor(3))
		if n.Digraph().Diameter() != 7 {
			b.Fatal("wrong diameter")
		}
	}
}

// BenchmarkEmbedRingIntoSK measures the dilation-1 directed-ring embedding
// into SK (Hamiltonian-cycle based).
func BenchmarkEmbedRingIntoSK(b *testing.B) {
	n := stackkautz.New(3, 2, 2)
	for i := 0; i < b.N; i++ {
		e, err := embed.DirectedRingIntoStackKautz(n)
		if err != nil {
			b.Fatal(err)
		}
		if m := e.Measure(); m.Dilation != 1 {
			b.Fatal("dilation should be 1")
		}
	}
}

// BenchmarkAblationLabelVsTable quantifies §2.5's "routing is very simple"
// claim: label-induced routing (O(k) work, zero state) against a
// precomputed N×N next-hop table (O(1) per hop, O(N²) memory), on KG(4,3)
// (80 vertices).
func BenchmarkAblationLabelVsTable(b *testing.B) {
	kg := kautz.New(4, 3)
	table := kg.BuildRoutingTable()
	pairs := make([][2]int, 256)
	for i := range pairs {
		pairs[i] = [2]int{(i * 13) % kg.N(), (i*29 + 7) % kg.N()}
	}
	b.Run("label", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			if p[0] == p[1] {
				continue
			}
			if kautz.Route(kg.LabelOf(p[0]), kg.LabelOf(p[1])) == nil {
				b.Fatal("no route")
			}
		}
	})
	b.Run("table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			if p[0] == p[1] {
				continue
			}
			if table.PathVia(p[0], p[1]) == nil {
				b.Fatal("no route")
			}
		}
	})
	b.Run("table-build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kg.BuildRoutingTable()
		}
	})
}
