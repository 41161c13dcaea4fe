package sweepserver

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"sync"
	"testing"

	"otisnet/internal/export"
	"otisnet/internal/sweep"
)

// streamRecord is a trio-like result row with the given floats.
func streamRecord(rate, thr, lat, hops float64) sweep.Record {
	return sweep.Record{Topology: "SK(6,3,2) N=72 couplers=48", Traffic: "hotspot", Workload: "hotspot g1 0.4",
		Rate: rate, Mode: "deflect", Wavelengths: 2, Fault: "node x2 @500", Seed: 97, Slots: 3000,
		Injected: 52000, Delivered: 51000, Dropped: 12, Backlog: 988, Throughput: thr, AvgLatency: lat,
		AvgHops: hops, PeakQueue: 17, Deflections: 4000, Unroutable: 3, LostToFaults: 9, Reroutes: 40, RecoverySlots: 120}
}

// FuzzStreamLineMatchesJSONMarshal holds appendStreamLine to the bytes
// export.WriteNDJSONLine writes for the same event, over every float form
// encoding/json has (0, -0, subnormals, below 1e-6, from 1e21 on) and
// arbitrary label strings; for NaN and ±Inf, which encoding/json refuses,
// it must refuse too and leave the buffer as it was.
func FuzzStreamLineMatchesJSONMarshal(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 5e-324, 2.2e-308, 9.99e-7, 1e-6, 0.3, 1.0 / 3,
		123456.789, 1e20, 1e21, -1e22, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add(7, v == 0, "SK(6,3,2) N=72 couplers=48", v, 0.25, v, 2.5)
	}
	f.Add(-1, true, "<tag> & \"quoted\" \\ \x00\n \xff é", 0.1, 1e-7, 1e21, 3.0)
	f.Fuzz(func(t *testing.T, index int, cached bool, topology string, rate, thr, lat, hops float64) {
		ev := StreamEvent{Index: index, Cached: cached, Record: streamRecord(rate, thr, lat, hops)}
		ev.Topology, ev.Fault = topology, topology
		var want bytes.Buffer
		werr := export.WriteNDJSONLine(&want, ev)
		prefix := []byte("earlier line\n")
		got, ok := appendStreamLine(append([]byte(nil), prefix...), &ev)
		if werr != nil {
			if ok || !bytes.Equal(got, prefix) {
				t.Fatalf("encoding/json refuses %+v (%v), appendStreamLine wrote %q (ok %v)", ev, werr, got, ok)
			}
			return
		}
		if !ok || !bytes.Equal(got[len(prefix):], want.Bytes()) || !bytes.Equal(got[:len(prefix)], prefix) {
			t.Fatalf("appendStreamLine (ok %v):\n got %q\nwant %q", ok, got[len(prefix):], want.Bytes())
		}
	})
}

// TestStreamMatchesPerLineMarshal replays a finished job's events through
// handleStream: the body must equal export.WriteNDJSONLine of each event
// in turn, across several write chunks, and must end where encoding/json
// first refuses an event (a NaN throughput), as it always has.
func TestStreamMatchesPerLineMarshal(t *testing.T) {
	s := New(sweep.Runner{}, nil)
	j := &job{id: "s1", state: stateDone}
	j.cond = sync.NewCond(&j.mu)
	var want bytes.Buffer
	for i := 0; i < 400; i++ {
		ev := StreamEvent{Index: i, Cached: i%3 == 0, Record: streamRecord(0.3, float64(i)/7, 1e-7*float64(i), 2.5)}
		j.events = append(j.events, ev)
		if err := export.WriteNDJSONLine(&want, ev); err != nil {
			t.Fatal(err)
		}
	}
	if want.Len() < 3*streamChunk {
		t.Fatalf("stream of %d bytes spans fewer than three chunks", want.Len())
	}
	bad := StreamEvent{Index: 400, Record: streamRecord(0.3, math.NaN(), 1, 1)}
	if _, err := json.Marshal(bad); err == nil {
		t.Fatal("encoding/json accepted a NaN")
	}
	j.events = append(j.events, bad, j.events[0])
	s.jobs[j.id] = j

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/api/v1/sweeps/s1/stream", nil))
	if got := rec.Body.Bytes(); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("stream body differs from per-line json.Marshal: %d bytes, want %d", len(got), want.Len())
	}
}
