package sim

// Engine observability tests: the NDJSON trace export (sampling, event
// schema, consistency with the run's metrics), the queue-depth bucket
// mapping against the registered histogram, and the once-per-scenario
// flush contract of Engine.Run.

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"otisnet/internal/export"
	"otisnet/internal/obs"
)

func TestQDepthBucketMatchesHistogram(t *testing.T) {
	// The hot path computes bucket indices with bits.Len; they must agree
	// with the registered histogram's binary-search mapping everywhere in
	// range (the overflow clamp is the only divergence past the last bound).
	for d := 1; d <= 1024; d++ {
		if got, want := qDepthBucket(d), engineObs.queueDepth.BucketOf(float64(d)); got != want {
			t.Fatalf("qDepthBucket(%d) = %d, histogram BucketOf = %d", d, got, want)
		}
	}
	for _, d := range []int{1025, 4096, 1 << 20} {
		if got := qDepthBucket(d); got != qDepthBuckets-1 {
			t.Fatalf("qDepthBucket(%d) = %d, want overflow bucket %d", d, got, qDepthBuckets-1)
		}
	}
}

// TestTraceSingleRun drives a traced run end to end and checks the event
// stream: only sampled slots emit, slot summaries carry monotonically
// non-decreasing cumulative counters, and deliver events land on the slot
// after their sampled transmission slot.
func TestTraceSingleRun(t *testing.T) {
	const sample = 5
	topo := skTopology(3, 2, 2)
	var buf bytes.Buffer
	tr := obs.NewTrace(&buf, sample)
	eng := NewEngine(topo, Config{Seed: 11})
	eng.SetTrace(tr)
	m := eng.Run(UniformTraffic{Rate: 0.4}, 200, 200, Config{Seed: 11})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if tr.Events() == 0 {
		t.Fatal("traced run emitted no events")
	}

	var slots []TraceSlotEvent
	var delivers []TraceDeliverEvent
	truncated, err := export.ForEachNDJSONLine(&buf, func(line []byte) error {
		var kind struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(line, &kind); err != nil {
			return err
		}
		switch kind.Kind {
		case "slot":
			var ev TraceSlotEvent
			if err := json.Unmarshal(line, &ev); err != nil {
				return err
			}
			slots = append(slots, ev)
		case "deliver":
			var ev TraceDeliverEvent
			if err := json.Unmarshal(line, &ev); err != nil {
				return err
			}
			delivers = append(delivers, ev)
		default:
			t.Fatalf("unknown trace event kind %q", kind.Kind)
		}
		return nil
	})
	if err != nil || truncated {
		t.Fatalf("parsing trace: err=%v truncated=%v", err, truncated)
	}
	if int64(len(slots)+len(delivers)) != tr.Events() {
		t.Fatalf("parsed %d events, sink counted %d", len(slots)+len(delivers), tr.Events())
	}
	if len(slots) == 0 || len(delivers) == 0 {
		t.Fatalf("want both event kinds, got %d slot / %d deliver", len(slots), len(delivers))
	}

	prev := TraceSlotEvent{Slot: -1}
	for _, ev := range slots {
		if ev.Slot%sample != 0 {
			t.Fatalf("slot event at unsampled slot %d (sample %d)", ev.Slot, sample)
		}
		if ev.Slot <= prev.Slot {
			t.Fatalf("slot events out of order: %d after %d", ev.Slot, prev.Slot)
		}
		if ev.Injected < prev.Injected || ev.Delivered < prev.Delivered ||
			ev.Dropped < prev.Dropped || ev.Deflections < prev.Deflections {
			t.Fatalf("cumulative counters regressed: %+v after %+v", ev, prev)
		}
		prev = ev
	}
	last := slots[len(slots)-1]
	if last.Injected > m.Injected || last.Delivered > m.Delivered {
		t.Fatalf("last slot event %+v exceeds final metrics %+v", last, m)
	}

	for _, ev := range delivers {
		// Transmission happens on a sampled slot; arrival is stamped one
		// slot later.
		if (ev.Slot-1)%sample != 0 {
			t.Fatalf("deliver event at slot %d not adjacent to a sampled slot", ev.Slot)
		}
		if ev.Hops < 1 || ev.Born < 0 || ev.Born >= ev.Slot {
			t.Fatalf("implausible deliver event %+v", ev)
		}
		if ev.Src < 0 || ev.Src >= topo.Nodes() || ev.Dst < 0 || ev.Dst >= topo.Nodes() {
			t.Fatalf("deliver endpoints out of range: %+v", ev)
		}
	}
}

// TestObsFlushOnRun checks the once-per-scenario flush: a completed
// Engine.Run must publish its scenario's tallies into the shared
// registry. Deltas are >=-checks because the registry is process-global.
func TestObsFlushOnRun(t *testing.T) {
	topo := skTopology(3, 2, 2)
	before := engineObs.scenarios.Value()
	beforeDelivered := engineObs.delivered.Value()
	beforeSlots := engineObs.slots.Value()
	m := Run(topo, UniformTraffic{Rate: 0.3}, 100, 100, Config{Seed: 3})
	if d := engineObs.scenarios.Value() - before; d < 1 {
		t.Fatalf("solo run flushed %d scenarios, want >= 1", d)
	}
	if d := engineObs.delivered.Value() - beforeDelivered; d < int64(m.Delivered) {
		t.Fatalf("delivered counter moved %d, want >= %d", d, m.Delivered)
	}
	if d := engineObs.slots.Value() - beforeSlots; d < int64(m.Slots) {
		t.Fatalf("slots counter moved %d, want >= %d", d, m.Slots)
	}
	// A generator that takes 5 ms a slot keeps the run waiting for its
	// only block for about the 10 slots' 50 ms.
	beforeWait := engineObs.genWait.Value()
	Run(topo, slowTraffic{5 * time.Millisecond}, 10, 10, Config{Seed: 3})
	if d := time.Duration(engineObs.genWait.Value() - beforeWait); d < 10*time.Millisecond {
		t.Fatalf("gen wait counter moved %v, want >= 10ms", d)
	}
}

// slowTraffic injects nothing and takes d per slot.
type slowTraffic struct{ d time.Duration }

func (t slowTraffic) Generate(buf []Injection, _, _ int, _ *rand.Rand) []Injection {
	time.Sleep(t.d)
	return buf
}
