package main

// sk6144-single: the large single run. Each repetition does what one
//
//	netsim -net sk -s 4 -d 2 -k 10 -rate 0.01 -parallel 1 -repeat 10
//
// does — TopoSpec.Build and sim.CheckTopology, sim.NewEngine, then skRuns
// Engine.Runs of the uniform workload on consecutive fresh seeds over the
// reused engine — so set-up (the O(N²) route-table build) and the slot
// loop are timed separately. A single 2000-slot run lasts about 0.25 s and
// varies by ±20% from run to run on a shared host; skRuns per build give
// the slot-loop median enough samples. The service layers do no work here.

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"otisnet/internal/sim"
	"otisnet/internal/sweep"
	"otisnet/internal/workload"
)

const (
	skRate  = 0.01
	skSlots = 2000 // netsim's -slots and -drain defaults
	skDrain = 2000
	skRuns  = 10 // Engine.Runs per build
)

// skSpec is SK(4,2,10): N=6144 nodes, 4608 couplers. The self-test uses
// SK(4,2,4), N=96.
func skSpec(small bool) sweep.TopoSpec {
	if small {
		return sweep.TopoSpec{Net: "sk", S: 4, D: 2, K: 4}
	}
	return sweep.TopoSpec{Net: "sk", S: 4, D: 2, K: 10}
}

// runSeed is the engine seed of run i of repetition rep; every run of the
// benchmark gets a fresh one.
func runSeed(seed int64, rep, i int) int64 { return seed*1000 + int64(rep*skRuns+i) }

// singleRep is one repetition's measurements.
type singleRep struct {
	build, compile time.Duration
	runs           []time.Duration
	ms             []sim.Metrics
	heap           float64
	// traced only
	topoHeap float64
	gens     []time.Duration // UniformTraffic.Generate alone over each run's slots and seed
}

func runSingle(b *bench) error {
	spec := skSpec(b.small)
	var plain, traced []singleRep
	var setupErr error
	reps := b.repeat(6500*time.Millisecond, 3, 12, func(rep int, tr bool) {
		if setupErr != nil {
			return
		}
		r, err := singleRepetition(spec, b.seed, rep, tr, b.probe)
		if err != nil {
			setupErr = err
			return
		}
		if !b.op(checkSingle(b, rep, r), fmt.Sprintf("repetition %d", rep)) {
			return
		}
		if tr {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	})
	if setupErr != nil {
		return setupErr
	}
	b.rep.note("repetitions", reps)
	b.rep.note("runs_per_repetition", skRuns)
	if b.trace {
		singleLayers(b, plain, traced)
		return nil
	}
	var setup, slotsPS, runS, heap []float64
	for _, r := range plain {
		setup = append(setup, (r.build + r.compile).Seconds())
		heap = append(heap, r.heap)
		for i, d := range r.runs {
			runS = append(runS, d.Seconds())
			slotsPS = append(slotsPS, float64(r.ms[i].Slots)/d.Seconds())
		}
	}
	b.timed("setup_s", median(setup), "s")
	b.rate("slots_per_s", median(slotsPS), "slots/s")
	b.rate("points_per_s", 1/median(runS), "points/s")
	b.timed("job_p50_s", median(runS), "s")
	t, p := tail(runS)
	b.timed("job_tail_s", t, "s")
	b.rep.set("heap_mb", median(heap), "MiB")
	b.rep.note("job_tail_s", map[string]any{"percentile": p, "samples": len(runS), "job": "Engine.Run"})
	b.rep.note("samples", map[string]any{"setup_s": setup, "run_s": runS})
	return nil
}

// singleRepetition builds, compiles and runs skRuns times, timing the
// host-speed probe before each run. A traced repetition also measures the
// topology's heap and the traffic generator alone; those extra steps sit
// outside the timed intervals.
func singleRepetition(spec sweep.TopoSpec, seed int64, rep int, traced bool, p *probe) (singleRep, error) {
	var r singleRep
	runtime.GC() // the previous repetition's topology must not be collected inside this one's timings
	var heap0 float64
	if traced {
		heap0 = heapMB()
	}
	t0 := time.Now()
	topo, err := spec.Build()
	if err == nil {
		err = sim.CheckTopology(topo.Topo)
	}
	r.build = time.Since(t0)
	if err != nil {
		return r, err
	}
	if traced {
		r.topoHeap = heapMB() - heap0
	}
	n := topo.Topo.Nodes()
	t1 := time.Now()
	eng := sim.NewEngine(topo.Topo, sim.Config{Seed: runSeed(seed, rep, 0)})
	r.compile = time.Since(t1)
	for i := 0; i < skRuns; i++ {
		cfg := sim.Config{Seed: runSeed(seed, rep, i)}
		traffic := workload.Spec{}.New(skRate, n, topo.GroupSize)
		p.measure()
		t2 := time.Now()
		m := eng.Run(traffic, skSlots, skDrain, cfg)
		r.runs = append(r.runs, time.Since(t2))
		r.ms = append(r.ms, m)
		if !traced {
			continue
		}
		rng := rand.New(rand.NewSource(cfg.Seed))
		gen := sim.UniformTraffic{Rate: skRate}
		var buf []sim.Injection
		injected := 0
		t3 := time.Now()
		for s := 0; s < skSlots; s++ {
			buf = gen.Generate(buf[:0], s, n, rng)
			injected += len(buf)
		}
		r.gens = append(r.gens, time.Since(t3))
		// The engine draws from its RNG only to generate traffic, so the
		// generator alone must inject exactly what the run did.
		if injected != m.Injected {
			return r, fmt.Errorf("generator alone injected %d, the run %d", injected, m.Injected)
		}
	}
	r.heap = heapMB()
	runtime.KeepAlive(eng)
	return r, nil
}

// checkSingle verifies one repetition's statistics: conservation and a
// drained network at every seed, and the pinned digest at seed 1.
func checkSingle(b *bench, rep int, r singleRep) error {
	var parts [][]byte
	for _, m := range r.ms {
		if m.Injected != m.Delivered+m.Dropped+m.Backlog {
			return fmt.Errorf("injected %d != delivered %d + dropped %d + backlog %d", m.Injected, m.Delivered, m.Dropped, m.Backlog)
		}
		if m.Injected == 0 || m.Backlog != 0 || m.Dropped != 0 || m.Slots < skSlots {
			return fmt.Errorf("implausible run: %v", m)
		}
		parts = append(parts, []byte(fmt.Sprintf("%+v", m)))
	}
	if b.seed != 1 {
		return nil
	}
	want := singlePins(b.small)
	if rep >= len(want) {
		return fmt.Errorf("no pinned digest for repetition %d", rep)
	}
	if got := digest(parts...); got != want[rep] {
		return fmt.Errorf("metrics digest %s, pinned %s", got, want[rep])
	}
	return nil
}

// singleLayers reports the per-layer metrics of a traced run.
func singleLayers(b *bench, plain, traced []singleRep) {
	var build, topoHeap, compile, gen, step, nsHop, runPlain, runTraced []float64
	for _, r := range traced {
		build = append(build, r.build.Seconds())
		topoHeap = append(topoHeap, r.topoHeap)
		compile = append(compile, r.compile.Seconds())
		for i, d := range r.runs {
			m := r.ms[i]
			gen = append(gen, float64(r.gens[i].Nanoseconds())/1e3/skSlots)
			step = append(step, float64((d-r.gens[i]).Nanoseconds())/1e3/float64(m.Slots))
			nsHop = append(nsHop, float64(d.Nanoseconds())/float64(m.TotalHops))
			runTraced = append(runTraced, d.Seconds())
		}
	}
	for _, r := range plain {
		for _, d := range r.runs {
			runPlain = append(runPlain, d.Seconds())
		}
	}
	l := layers{}
	l.set("topology.build_s", median(build))
	l.set("topology.heap_mb", median(topoHeap))
	l.set("sim.compile_s", median(compile))
	l.set("workload.gen_us_per_slot", median(gen))
	l.set("sim.step_us_per_slot", median(step))
	l.set("sim.ns_per_hop", median(nsHop))
	if len(traced) > 0 {
		// Exact counts of the first traced run; deterministic per seed.
		m := traced[0].ms[0]
		l.set("sim.slots", float64(m.Slots))
		l.set("sim.injected", float64(m.Injected))
		l.set("sim.delivered", float64(m.Delivered))
		l.set("sim.hops", float64(m.TotalHops))
	}
	l.set("trace.overhead_frac", overhead(runPlain, runTraced))
	l.report(b)
}
