package sim

// Engine.Run's traffic pipeline: a producer goroutine draws the run's
// injections into blocks while the caller steps the slots drawn so far.
// Only the producer touches the run's RNG, UniformStream and Traffic, and
// a block changes hands only by a channel operation, so every slot gets
// exactly the injections an inline loop would draw (DESIGN.md, "Why one
// serial kernel and one generation stage").

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

const (
	genBlocks     = 3   // injection blocks per engine
	genBlockInj   = 512 // injections per block: 8 KiB
	genBlockSlots = 128 // slot ends per block
)

// genBlock holds consecutive slots: the i-th injects inj[ends[i-1]:ends[i]]
// (from 0 for i = 0), and injections after the last end begin a slot that
// a later block ends. Neither slice grows past its first capacity. The
// run's last block carries what the generator panicked with, if it did.
type genBlock struct {
	inj      []Injection
	ends     []int32
	last     bool
	panicked any
}

// genPipe is an engine's end of the pipeline: its blocks, the queues they
// cycle through and the current run's job.
type genPipe struct {
	full, free chan *genBlock
	stop       atomic.Bool // the caller unwound: end at the next block
	traffic    Traffic
	seed       int64
	slots, n   int
}

func newGenPipe() *genPipe {
	g := &genPipe{full: make(chan *genBlock, genBlocks), free: make(chan *genBlock, genBlocks)}
	for range genBlocks {
		g.free <- &genBlock{inj: make([]Injection, 0, genBlockInj), ends: make([]int32, 0, genBlockSlots)}
	}
	return g
}

// take returns the next free block, emptied.
func (g *genPipe) take() *genBlock {
	b := <-g.free
	*b = genBlock{inj: b.inj[:0], ends: b.ends[:0]}
	return b
}

// producer is a parked generation goroutine with its own RNG, sampler and
// slot scratch. Between runs it holds no reference to an engine, block or
// traffic value.
type producer struct {
	jobs chan *genPipe
	rng  *rand.Rand
	uni  UniformStream
	slot []Injection
}

// producers are parked here. A Run takes one and puts it back after its
// last block, so there are never more than the peak of concurrent Runs.
var producers struct {
	sync.Mutex
	idle []*producer
}

func getProducer() *producer {
	producers.Lock()
	defer producers.Unlock()
	if k := len(producers.idle) - 1; k >= 0 {
		p := producers.idle[k]
		producers.idle = producers.idle[:k]
		return p
	}
	p := &producer{jobs: make(chan *genPipe), rng: rand.New(rand.NewSource(0))}
	go func() {
		for g := range p.jobs {
			p.fill(g)
		}
	}()
	return p
}

// fill seeds the RNG, draws g's run into blocks and sends them. A panic in
// the generator is recovered into the last block.
func (p *producer) fill(g *genPipe) {
	b := g.take()
	defer func() {
		b.panicked = recover()
		b.last = true
		g.full <- b // never blocks: full has room for every block
	}()
	p.rng.Seed(g.seed)
	ur, uniform := g.traffic.(UniformRater)
	if uniform {
		p.uni.Start(p.rng, ur.UniformRate())
	}
	for s := 0; s < g.slots; s++ {
		if uniform {
			p.slot = p.uni.AppendSlot(p.slot[:0], g.n)
		} else {
			p.slot = g.traffic.Generate(p.slot[:0], s, g.n, p.rng)
		}
		for inj := p.slot; ; {
			if len(b.inj) == cap(b.inj) || len(b.ends) == cap(b.ends) {
				if g.stop.Load() {
					return
				}
				g.full <- b
				b = g.take()
			}
			k := copy(b.inj[len(b.inj):cap(b.inj)], inj)
			b.inj, inj = b.inj[:len(b.inj)+k], inj[k:]
			if len(inj) == 0 {
				break
			}
		}
		b.ends = append(b.ends, int32(len(b.inj)))
	}
}

// generate steps slots slots of traffic seeded with seed, drawn by a
// producer, and tallies the time spent waiting for it. A generator panic
// is raised again here, after the slots drawn before it have stepped.
func (e *Engine) generate(traffic Traffic, slots int, seed int64) {
	if e.gen == nil {
		e.gen = newGenPipe()
	}
	g := e.gen
	g.traffic, g.seed, g.slots, g.n = traffic, seed, slots, e.n
	p := getProducer()
	p.jobs <- g
	var b *genBlock // held by this goroutine
	defer func() {
		if b == nil {
			g.traffic = nil
		} else {
			// Step panicked (an OnDeliver callback, say): stop the
			// producer, return the block it may wait for and leave it the
			// pipe; the next Run makes a new one.
			g.stop.Store(true)
			g.free <- b
			e.gen = nil
		}
		producers.Lock()
		producers.idle = append(producers.idle, p)
		producers.Unlock()
	}()
	for {
		select {
		case b = <-g.full:
		default:
			t0 := time.Now()
			b = <-g.full
			e.obs.genWaitNs += int64(time.Since(t0))
		}
		start := int32(0)
		for _, end := range b.ends {
			e.injectAll(b.inj[start:end])
			e.Step()
			start = end
		}
		e.injectAll(b.inj[start:])
		last, panicked := b.last, b.panicked
		g.free <- b
		b = nil
		if last {
			if panicked != nil {
				panic(panicked)
			}
			return
		}
	}
}

func (e *Engine) injectAll(inj []Injection) {
	for _, in := range inj {
		e.Inject(in.Src, in.Dst)
	}
}
