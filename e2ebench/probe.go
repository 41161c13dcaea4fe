package main

// The host-speed probe. On a shared host the speed one process gets drifts
// by 20–80% over minutes, with no code change (README.md, "Measured
// spread"): more than any bound a gate can use. So every run also times a
// fixed reference task between its repetitions and scales each timed
// end-to-end figure by probeRef over the run's median probe time. The
// figures then read as on the reference host in its calm state. A slow
// phase of the host slows the probe too, though not as much as the
// program (README.md, "Host-speed scaling").
//
// The task is a dependent walk over a 1 MiB table in a pseudo-random
// order. The table fits the core's own L2 cache, so the walk slows when
// the tenants sharing the physical core and the caches take capacity or
// cycles from it. Of the walks over 1, 16 and 128 MiB and a SHA-256 loop
// that were tried, its slow phases tracked the simulator's most closely.
// It is the benchmark's own code, so no change to the program can change
// what it does. The table is mapped outside the Go heap, so heap_mb does
// not see it.

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

const (
	probeWords = 1 << 18 // 1 MiB of uint32
	probeSteps = 1_600_000
	// probeRef is the median probe time on the reference host in a calm
	// phase (README.md).
	probeRef = 12 * time.Millisecond
)

// probe holds the walk's table and the times measured so far.
type probe struct {
	mem   []byte
	next  []uint32 // next[i] is the successor of i on one cycle through every index
	at    uint32
	times []float64
}

// newProbe maps and fills the table. Successors follow a full-period
// linear congruential sequence modulo probeWords, so the walk visits every
// word once per cycle in an order no prefetcher follows, and each step's
// address depends on the previous load.
func newProbe() (*probe, error) {
	mem, err := syscall.Mmap(-1, 0, probeWords*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	next := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), probeWords)
	const a, c = 1664525, 1013904223 // a ≡ 1 (mod 4), c odd: full period modulo a power of two
	for i := range next {
		next[i] = (a*uint32(i) + c) & (probeWords - 1)
	}
	return &probe{mem: mem, next: next}, nil
}

// measure walks probeSteps steps and records the time taken. An untimed
// full cycle first brings the table back into the caches, so what the
// program did before cannot move the timed walk.
func (p *probe) measure() {
	i := p.at
	for s := 0; s < probeWords; s++ {
		i = p.next[i]
	}
	t0 := time.Now()
	for s := 0; s < probeSteps; s++ {
		i = p.next[i]
	}
	p.times = append(p.times, time.Since(t0).Seconds())
	p.at = i
}

// scale is probeRef over the median probe time: below 1 when the host ran
// slow. Timed figures are multiplied by it, rates divided.
func (p *probe) scale() float64 {
	return probeRef.Seconds() / median(p.times)
}

func (p *probe) close() error {
	p.next = nil
	return syscall.Munmap(p.mem)
}
