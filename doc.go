// Package otisnet is a reproduction of "OTIS-Based Multi-Hop Multi-OPS
// Lightwave Networks" (Coudert, Ferreira, Muñoz; WOCS/IPPS 1999) as a Go
// library: Kautz and Imase-Itoh digraphs, stack-graphs, the OTIS free-space
// architecture, OPS couplers, the POPS and stack-Kautz networks, a
// component-level optical design engine that machine-checks the paper's
// Proposition 1 and the Figure 11/12 designs end to end, and a slotted-time
// network simulator with pluggable structured workloads (OTIS transpose,
// group hotspot, bursty on/off, collective-schedule replay validating the
// T9 bounds dynamically), fault injection (live node/coupler/transmitter
// failures validating §2.5 dynamically) and parallel scenario sweeps.
//
// The public surface lives in internal packages by design (this module is a
// research artifact); see README.md for the architecture map, cmd/ for the
// executables, and examples/ for runnable walkthroughs. The benchmarks in
// bench_test.go regenerate every table and figure of the paper (see
// DESIGN.md for the experiment index and the paper's errata).
package otisnet
