package sim_test

// Tests of Engine.Run's traffic pipeline: the producer goroutine draws each
// run's injections into blocks, the caller steps them. Results must equal
// the inline generate-inject-step loop bit for bit, panics must reach the
// caller, and producers and blocks must not outlive their use.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"otisnet/internal/sim"
	"otisnet/internal/stackkautz"
	"otisnet/internal/workload"
)

func sk632() sim.Topology { return sim.NewStackTopology(stackkautz.New(6, 3, 2).StackGraph()) }

// generated is uniform traffic that Run must draw through Generate: it
// does not declare UniformRater.
type generated struct{ u sim.UniformTraffic }

func (t generated) Generate(buf []sim.Injection, slot, n int, rng *rand.Rand) []sim.Injection {
	return t.u.Generate(buf, slot, n, rng)
}

// inlineRun is the loop Run replaced: generate, inject and step each slot
// on the caller's goroutine, then drain.
func inlineRun(topo sim.Topology, rate float64, slots, drain int, cfg sim.Config) sim.Metrics {
	e := sim.NewEngine(topo, cfg)
	rng := rand.New(rand.NewSource(cfg.Seed))
	var buf []sim.Injection
	for s := 0; s < slots; s++ {
		buf = (sim.UniformTraffic{Rate: rate}).Generate(buf[:0], s, topo.Nodes(), rng)
		for _, inj := range buf {
			e.Inject(inj.Src, inj.Dst)
		}
		e.Step()
	}
	for s := 0; s < drain && e.Backlog() > 0; s++ {
		e.Step()
	}
	return e.Metrics()
}

// TestPipelineMatchesInlineLoop crosses block boundaries every way: idle
// slots (blocks full of slot ends), busy slots (blocks full of injections,
// with slots split across two blocks), runs shorter and longer than one
// block, through both the uniform stream and Generate.
func TestPipelineMatchesInlineLoop(t *testing.T) {
	topo := sk632()
	e := sim.NewEngine(topo, sim.Config{})
	for _, rate := range []float64{0, 0.001, 0.3, 1} {
		for _, slots := range []int{1, sim.PipeBlockSlots - 1, sim.PipeBlockSlots, sim.PipeBlockSlots + 1, 300, 1000} {
			cfg := sim.Config{Seed: int64(slots) + 7, MaxQueue: 8}
			want := inlineRun(topo, rate, slots, 300, cfg)
			for _, tr := range []sim.Traffic{sim.UniformTraffic{Rate: rate}, generated{sim.UniformTraffic{Rate: rate}}} {
				if got := e.Run(tr, slots, 300, cfg); got != want {
					t.Errorf("rate %v slots %d %T:\nrun    %v\ninline %v", rate, slots, tr, got, want)
				}
			}
		}
	}
}

// panicAt draws uniform traffic through Generate and panics with val at
// the given slot.
type panicAt struct {
	u    sim.UniformTraffic
	slot int
	val  any
}

func (t panicAt) Generate(buf []sim.Injection, slot, n int, rng *rand.Rand) []sim.Injection {
	if slot == t.slot {
		panic(t.val)
	}
	return t.u.Generate(buf, slot, n, rng)
}

// runRecover runs one scenario and returns what it panicked with.
func runRecover(e *sim.Engine, tr sim.Traffic, slots int, cfg sim.Config) (r any) {
	defer func() { r = recover() }()
	e.Run(tr, slots, 100, cfg)
	return nil
}

// TestPipelineGeneratorPanicReachesCaller pins the panic rule: a panic in
// Generate, which runs on the producer, is raised again from Engine.Run on
// the caller's goroutine with its original value, once the slots before it
// have stepped; and the engine's next Run equals a fresh engine's.
func TestPipelineGeneratorPanicReachesCaller(t *testing.T) {
	topo := sk632()
	cfg := sim.Config{Seed: 3}
	sentinel := errors.New("generator failed")
	vanished := filepath.Join(t.TempDir(), "trace.csv")
	if err := os.WriteFile(vanished, []byte("0,1,2\n1,2,3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := workload.NewTraceSpec(vanished)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(vanished); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		traffic sim.Traffic
		slot    int // the slot that panics
		check   func(r any) bool
	}{
		{"sentinel mid-block", panicAt{sim.UniformTraffic{Rate: 0.3}, 300, sentinel}, 300,
			func(r any) bool { return r == sentinel }},
		{"transpose of the wrong size", workload.NewTranspose(0.3, 16, 4), 0,
			func(r any) bool {
				return r == fmt.Sprintf("workload: transpose over 16 nodes used on %d-node network", topo.Nodes())
			}},
		{"trace file vanished", spec.New(1, topo.Nodes(), 6), 0,
			func(r any) bool { s, ok := r.(string); return ok && strings.Contains(s, "trace replay") }},
	} {
		e := sim.NewEngine(topo, cfg)
		if r := runRecover(e, tc.traffic, 1000, cfg); !tc.check(r) {
			t.Errorf("%s: Run panicked with %#v", tc.name, r)
		}
		if got := e.Metrics().Slots; got != tc.slot {
			t.Errorf("%s: %d slots stepped before the panic, want %d", tc.name, got, tc.slot)
		}
		cfg2 := sim.Config{Seed: 4, Deflection: true}
		reused := e.Run(sim.UniformTraffic{Rate: 0.4}, 400, 400, cfg2)
		if fresh := sim.Run(topo, sim.UniformTraffic{Rate: 0.4}, 400, 400, cfg2); reused != fresh {
			t.Errorf("%s: next run diverged:\nreused %v\nfresh  %v", tc.name, reused, fresh)
		}
	}
	// The slots before the panic are exactly the inline loop's.
	e := sim.NewEngine(topo, cfg)
	runRecover(e, panicAt{sim.UniformTraffic{Rate: 0.3}, 300, sentinel}, 1000, cfg)
	if got, want := e.Metrics(), inlineRun(topo, 0.3, 300, 0, cfg); got != want {
		t.Errorf("state at the panic:\nrun    %v\ninline %v", got, want)
	}
}

// TestPipelineStepPanicLeavesEngineReusable covers the consumer's side: a
// panic out of Step (here an OnDeliver callback) stops the producer,
// leaks no goroutine, and the engine's next Run equals a fresh engine's.
func TestPipelineStepPanicLeavesEngineReusable(t *testing.T) {
	topo := sk632()
	cfg := sim.Config{Seed: 5}
	sim.Run(topo, sim.UniformTraffic{Rate: 0.3}, 10, 10, cfg) // park a producer
	base := runtime.NumGoroutine()
	sentinel := errors.New("callback failed")
	for i := 0; i < 20; i++ {
		e := sim.NewEngine(topo, cfg)
		e.OnDeliver = func(_ sim.Message, slot int) {
			if slot >= 50+i {
				panic(sentinel)
			}
		}
		if r := runRecover(e, sim.UniformTraffic{Rate: 0.5}, 2000, cfg); r != sentinel {
			t.Fatalf("Run panicked with %#v, want the callback's value", r)
		}
		e.OnDeliver = nil
		reused := e.Run(sim.UniformTraffic{Rate: 0.2}, 500, 500, cfg)
		if fresh := sim.Run(topo, sim.UniformTraffic{Rate: 0.2}, 500, 500, cfg); reused != fresh {
			t.Fatalf("next run diverged:\nreused %v\nfresh  %v", reused, fresh)
		}
	}
	if g := runtime.NumGoroutine(); g > base+2 {
		t.Errorf("%d goroutines after 20 interrupted runs, %d before", g, base)
	}
}

// TestPipelineGoroutinesBounded pins the goroutine lifetime: producers are
// parked and reused, so a thousand runs leave the goroutine count where it
// was, and a dropped engine's pipeline and blocks are collected.
func TestPipelineGoroutinesBounded(t *testing.T) {
	topo := sim.NewStackTopology(stackkautz.New(3, 2, 2).StackGraph())
	var traffic sim.Traffic = sim.UniformTraffic{Rate: 0.3}
	sim.Run(topo, traffic, 10, 10, sim.Config{Seed: 1}) // park a producer
	base := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		sim.Run(topo, traffic, 20, 20, sim.Config{Seed: int64(i)})
	}
	if g := runtime.NumGoroutine(); g > base+2 {
		t.Errorf("%d goroutines after 1000 runs, %d before", g, base)
	}
	const engines = 50
	var collected atomic.Int32
	for i := 0; i < engines; i++ {
		e := sim.NewEngine(topo, sim.Config{Seed: int64(i)})
		e.Run(traffic, 50, 50, sim.Config{Seed: int64(i)})
		sim.OnPipeCollected(e, func() { collected.Add(1) })
	}
	want := int32(engines * (1 + sim.PipeBlocks))
	for deadline := time.Now().Add(10 * time.Second); collected.Load() < want && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := collected.Load(); got != want {
		t.Errorf("%d of %d pipelines and blocks of dropped engines collected", got, want)
	}
	if g := runtime.NumGoroutine(); g > base+2 {
		t.Errorf("%d goroutines after dropping %d engines, %d before", g, engines, base)
	}
}

// TestPipelineConcurrentRunsMatchSerial runs engines on several goroutines
// at once, each with its own producer, and checks every result against a
// fresh serial run. Under -race it checks the block handoffs.
func TestPipelineConcurrentRunsMatchSerial(t *testing.T) {
	topo := sk632()
	const workers, runs = 4, 5
	cfg := func(w, i int) sim.Config {
		return sim.Config{Seed: int64(100*w + i), Deflection: i%2 == 1, Wavelengths: 1 + w%2}
	}
	rate := func(i int) float64 { return 0.1 * float64(1+i) }
	got := make([][runs]sim.Metrics, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := sim.NewEngine(topo, sim.Config{})
			for i := 0; i < runs; i++ {
				got[w][i] = e.Run(sim.UniformTraffic{Rate: rate(i)}, 600, 600, cfg(w, i))
			}
		}()
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		for i := 0; i < runs; i++ {
			if want := sim.Run(topo, sim.UniformTraffic{Rate: rate(i)}, 600, 600, cfg(w, i)); got[w][i] != want {
				t.Errorf("worker %d run %d:\nconcurrent %v\nserial     %v", w, i, got[w][i], want)
			}
		}
	}
}
