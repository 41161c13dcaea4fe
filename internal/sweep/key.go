package sweep

// Content-addressed scenario identity. A Scenario is hashed into a
// canonical key so that a result cache (internal/sweepcache) can reuse
// completed points across runs, shards and processes. Two scenarios share a
// key exactly when the engine is guaranteed to produce identical metrics
// for them: the key covers the topology *structure* (not its display
// name), every engine parameter, the fault spec and the workload spec —
// and nothing else. Display-only fields (Topology.Name, TrafficName) are
// deliberately excluded: they label output rows but cannot change a single
// simulated bit.
//
// Wavelengths and mode are folded by the topology's coupler fan-in F (the
// most nodes that list any one coupler as an out-coupler; sim.FanIn), the
// rule sim.Config.Canonical states and the engine runs: W hashes as
// min(max(W, 1), F), and the mode as store-and-forward when W >= F. The
// proof: a node requests at most one of its own out-couplers per slot, so
// a coupler never has more than F requests; W beyond F grants nothing
// more, and at W >= F no request loses arbitration, which is the only
// place deflection acts. Faults only shrink the live out-lists
// (faults.FaultedTopology), so the base topology's F bounds every fault
// plan. The paper's de Bruijn baseline has F = 1 (every arc is its own
// degree-1 coupler), so its four (mode, W in {1, 2}) siblings share one
// key. A scenario already in canonical form hashes exactly as it did
// before the fold, so the fold needed no keyVersion bump.
//
// The key is versioned (keyVersion). Any change to engine semantics that
// keeps the Scenario type but alters results for the same field values
// must bump the version, which invalidates every cache entry at once.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strconv"
	"sync/atomic"

	"otisnet/internal/sim"
	"otisnet/internal/workload"
)

// keyVersion tags the canonical encoding. Bump it whenever the engine's
// observable behavior for a fixed Scenario changes (new RNG consumption
// order, changed arbitration tie-breaks, metric redefinitions, ...).
const keyVersion = "otisnet-scenario-v1"

// TopologyFingerprint returns a hex SHA-256 of the topology's structure:
// node count, coupler count, every node's out-coupler list and every
// coupler's head list, in index order. Routing and distances are derived
// deterministically from exactly that structure (the construction-time
// scan oracles break ties in list order), so two topologies with equal
// fingerprints are simulation-equivalent. The fingerprint is computed
// from the pristine structure, so it must be taken from the base
// topology, never from a live fault wrapper.
func TopologyFingerprint(t sim.Topology) string { return identity(t).Fingerprint }

// identity returns the topology's fingerprint and fan-in. A topology with
// a fingerprintMemo slot (the stack and point-to-point topologies) keeps
// them there once computed, so the memo lives exactly as long as the
// topology; others are scanned on every call.
func identity(t sim.Topology) sim.Identity {
	memo, ok := t.(fingerprintMemo)
	if !ok {
		return sim.Identity{Fingerprint: fingerprint(t), FanIn: sim.FanIn(t)}
	}
	slot := memo.FingerprintSlot()
	if id := slot.Load(); id != nil {
		return *id
	}
	id := sim.Identity{Fingerprint: fingerprint(t), FanIn: sim.FanIn(t)}
	slot.Store(&id)
	return id
}

// fingerprintMemo is implemented by topologies that carry a slot for their
// own identity.
type fingerprintMemo interface {
	FingerprintSlot() *atomic.Pointer[sim.Identity]
}

// fingerprint hashes the structure TopologyFingerprint describes.
func fingerprint(t sim.Topology) string {
	h := sha256.New()
	var buf [8]byte
	writeInt := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	n, m := t.Nodes(), t.Couplers()
	writeInt(n)
	writeInt(m)
	for u := 0; u < n; u++ {
		out := t.OutCouplers(u)
		writeInt(len(out))
		for _, c := range out {
			writeInt(c)
		}
	}
	for c := 0; c < m; c++ {
		heads := t.Heads(c)
		writeInt(len(heads))
		for _, hd := range heads {
			writeInt(hd)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// CacheKey returns the scenario's content-addressed key: a hex SHA-256 of
// the canonical encoding described above. Every scenario is hashable: its
// traffic is always named by a workload.Spec. The encoding is appended
// into a stack buffer with strconv and hashed in one sha256.Sum256, so a
// call allocates only the returned string.
func (s Scenario) CacheKey() string {
	var buf [512]byte
	sum := sha256.Sum256(appendKey(buf[:0], s))
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}

// appendKey appends the canonical encoding to b:
//
//	<keyVersion>\ntopo <fingerprint>\nrate <r>\nseed <n>\nmode <n>\n
//	wavelengths <n>\nmaxqueue <n>\nslots <n>\ndrain <n>\n
//	fault none|stochastic ...|oneshot ...\nworkload <kind> ...\n
//
// Fields are normalized first so that parameter spellings the engine
// cannot distinguish hash identically: wavelengths and mode are folded by
// the topology's fan-in (see the file comment; Wavelengths 0 and 1 are
// the same engine), a fault spec with Count 0 is fault-free regardless of
// its other fields, workload parameters that the selected kind ignores
// are zeroed, and the rate normalizes to 1 where the generator would
// treat it so (event traces replay verbatim at any rate; rate traces
// treat a scale <= 0 as 1). Integers are base 10 and floats go through
// appendCanonFloat.
func appendKey(b []byte, s Scenario) []byte {
	id := identity(s.Topology.Topo)
	run := s.Config().Canonical(id.FanIn)
	mode := s.Mode
	if mode == Deflection && !run.Deflection {
		mode = StoreAndForward
	}
	rate := s.Rate
	if s.Workload.Kind == workload.KindTrace &&
		(s.Workload.TraceForm == workload.TraceEvents || rate <= 0) {
		rate = 1
	}
	b = append(b, keyVersion+"\ntopo "...)
	b = append(b, id.Fingerprint...)
	b = appendCanonFloat(append(b, "\nrate "...), rate)
	b = strconv.AppendInt(append(b, "\nseed "...), s.Seed, 10)
	b = appendInt(append(b, "\nmode "...), int(mode))
	b = appendInt(append(b, "\nwavelengths "...), run.Wavelengths)
	b = appendInt(append(b, "\nmaxqueue "...), s.MaxQueue)
	b = appendInt(append(b, "\nslots "...), s.Slots)
	b = appendInt(append(b, "\ndrain "...), s.Drain)

	f := s.Fault
	switch {
	case f.IsZero():
		b = append(b, "\nfault none"...)
	case f.MTBF > 0 && f.MTTR > 0:
		b = appendInt(append(b, "\nfault stochastic "...), int(f.Kind))
		b = appendInt(append(b, ' '), f.Count)
		b = appendCanonFloat(append(b, ' '), f.MTBF)
		b = appendCanonFloat(append(b, ' '), f.MTTR)
		b = appendInt(append(b, ' '), f.Horizon)
		b = strconv.AppendInt(append(b, ' '), f.Seed, 10)
	default:
		b = appendInt(append(b, "\nfault oneshot "...), int(f.Kind))
		b = appendInt(append(b, ' '), f.Count)
		b = appendInt(append(b, ' '), f.Slot)
		b = strconv.AppendInt(append(b, ' '), f.Seed, 10)
	}

	w := s.Workload
	switch w.Kind {
	case workload.KindTranspose: // parameterless beyond the topology's group size
		b = appendInt(append(b, "\nworkload transpose "...), s.Topology.GroupSize)
	case workload.KindHotspot: // group-structured
		b = appendInt(append(b, "\nworkload hotspot "...), s.Topology.GroupSize)
		b = appendInt(append(b, ' '), w.HotGroup)
		b = appendCanonFloat(append(b, ' '), w.Fraction)
	case workload.KindBursty: // ignores group structure
		b = appendCanonFloat(append(b, "\nworkload bursty "...), w.MeanOn)
		b = appendCanonFloat(append(b, ' '), w.MeanOff)
		b = appendCanonFloat(append(b, ' '), w.OffFactor)
	case workload.KindTrace:
		// Content-addressed: the fingerprint of the trace bytes, never the
		// path, so renaming or relocating a trace is a warm cache hit while
		// editing one record recomputes every affected point.
		b = appendInt(append(b, "\nworkload trace "...), int(w.TraceForm))
		b = append(append(b, ' '), w.TraceFP...)
	case workload.KindMultiPeriod: // ignores group structure
		b = appendInt(append(b, "\nworkload multiperiod "...), w.Period)
		for _, v := range [...]float64{w.Amplitude, w.EpisodeOn, w.EpisodeOff,
			w.MeanOn, w.MeanOff, w.RateSigma, w.OffFactor} {
			b = appendCanonFloat(append(b, ' '), v)
		}
	default: // uniform — ignores every parameter
		b = append(b, "\nworkload uniform"...)
	}
	return append(b, '\n')
}

func appendInt(b []byte, v int) []byte { return strconv.AppendInt(b, int64(v), 10) }

// appendCanonFloat renders a float canonically: the shortest representation
// that round-trips (strconv 'g' with precision -1), so 0.30000000000000004
// and 0.3 stay distinct but formatting can never drift between writers.
func appendCanonFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
