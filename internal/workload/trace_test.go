package workload

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"otisnet/internal/sim"
	"otisnet/internal/stackkautz"
)

// writeTrace drops trace content into a temp file and returns its path.
func writeTrace(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestScanTraceFormsAndErrors(t *testing.T) {
	valid := map[string]struct {
		content string
		form    TraceForm
		records int
		maxSlot int
	}{
		"csv events":       {"0,1,2\n0,3,4\n5,0,1\n", TraceEvents, 3, 5},
		"csv rates":        {"0,0.2\n100,0.55\n", TraceRates, 2, 100},
		"ndjson events":    {`{"slot":0,"src":1,"dst":2}` + "\n" + `{"slot":2,"dst":0,"src":7}` + "\n", TraceEvents, 2, 2},
		"ndjson rates":     {`{"slot":0,"rate":0.25}` + "\n", TraceRates, 1, 0},
		"header+comments":  {"# a comment\nslot,src,dst\n0,1,2\n\n1,2,3\n", TraceEvents, 2, 1},
		"rates header":     {"SLOT,RATE\n0,1\n", TraceRates, 1, 0},
		"repeated slots":   {"3,1,2\n3,2,1\n3,0,5\n", TraceEvents, 3, 3},
		"exotic floats":    {"0,1e-3\n1,.5\n", TraceRates, 2, 1},
		"mixed encodings":  {"0,1,2\n" + `{"slot":1,"src":2,"dst":3}` + "\n", TraceEvents, 2, 1},
		"crlf line breaks": {"0,1,2\r\n1,2,3\r\n", TraceEvents, 2, 1},
	}
	for name, tc := range valid {
		info, err := ScanTrace(writeTrace(t, tc.content))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if info.Form != tc.form || info.Records != tc.records || info.MaxSlot != tc.maxSlot {
			t.Errorf("%s: got form=%s records=%d maxSlot=%d, want %s/%d/%d",
				name, info.Form, info.Records, info.MaxSlot, tc.form, tc.records, tc.maxSlot)
		}
		if len(info.Fingerprint) != 64 {
			t.Errorf("%s: fingerprint %q is not a hex sha256", name, info.Fingerprint)
		}
	}

	// Each invalid file is paired with its exact error, after the
	// "workload: trace <path>" prefix.
	invalid := map[string]struct{ content, want string }{
		"empty":                    {"", ": no records"},
		"comments only":            {"# nothing\n", ": no records"},
		"unsorted slots":           {"5,1,2\n3,2,1\n", ":2: slot 3 after slot 5 (records must be slot-sorted)"},
		"mixed forms":              {"0,1,2\n1,0.5\n", ":2: rates record in an events trace (one form per file)"},
		"mixed json forms":         {`{"slot":0,"src":1,"dst":2}` + "\n" + `{"slot":1,"rate":0.5}` + "\n", ":2: rates record in an events trace (one form per file)"},
		"negative slot":            {"-1,1,2\n", `:1: bad slot "-1"`},
		"negative src":             {"0,-1,2\n", `:1: bad event ids "-1","2" (want non-negative node ids)`},
		"rate above 1":             {"0,1.5\n", `:1: bad rate "1.5" (want a probability in [0,1])`},
		"negative rate":            {"0,-0.5\n", `:1: bad rate "-0.5" (want a probability in [0,1])`},
		"NaN rate":                 {"0,NaN\n", `:1: bad rate "NaN" (want a probability in [0,1])`},
		"garbage":                  {"hello world\n", `:1: bad slot "hello world"`},
		"four fields":              {"0,1,2,3\n", ":1: CSV field count 4 (want slot,src,dst or slot,rate)"},
		"five fields":              {"0,1,2,3,4\n", ":1: CSV field count 5 (want slot,src,dst or slot,rate)"},
		"one field":                {"42\n", ":1: CSV field count 1 (want slot,src,dst or slot,rate)"},
		"mixed forms, rates first": {"0,0.5\n1,1,2\n", ":2: events record in a rates trace (one form per file)"},
		"header mid-file":          {"0,1,2\nslot,src,dst\n", `:2: bad slot "slot"`},
		"json no slot":             {`{"src":1,"dst":2}` + "\n", ":1: record has no slot"},
		"json mixed keys":          {`{"slot":0,"src":1,"rate":0.5}` + "\n", ":1: record must carry src+dst or rate, not a mix"},
		"json unknown key":         {`{"slot":0,"src":1,"dst":2,"weight":3}` + "\n", `:1: unknown record key "weight" (want slot, src, dst or rate)`},
		"json unclosed":            {`{"slot":0,"src":1,"dst":2` + "\n", ":1: unterminated record object"},
		"json trailing":            {`{"slot":0,"src":1,"dst":2} extra` + "\n", `:1: trailing bytes "extra" after record`},
		"json NaN rate":            {`{"slot":0,"rate":NaN}` + "\n", `:1: bad rate "NaN" (want a probability in [0,1])`},
		"float slot":               {"0.5,1,2\n", `:1: bad slot "0.5"`},
	}
	for name, tc := range invalid {
		path := writeTrace(t, tc.content)
		_, err := ScanTrace(path)
		if want := "workload: trace " + path + tc.want; err == nil || err.Error() != want {
			t.Errorf("%s: ScanTrace(%q) error %v, want %q", name, tc.content, err, want)
		}
	}

	if _, err := ScanTrace(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Error("ScanTrace accepted a missing file")
	}
}

func TestTraceFingerprintTracksContent(t *testing.T) {
	a, err := NewTraceSpec(writeTrace(t, "0,1,2\n1,2,3\n"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTraceSpec(writeTrace(t, "0,1,2\n1,2,3\n")) // same bytes, other path
	if err != nil {
		t.Fatal(err)
	}
	if a.TraceFP != b.TraceFP {
		t.Error("identical content at different paths fingerprinted differently")
	}
	c, err := NewTraceSpec(writeTrace(t, "0,1,2\n1,2,4\n")) // one record edited
	if err != nil {
		t.Fatal(err)
	}
	if a.TraceFP == c.TraceFP {
		t.Error("editing one record kept the fingerprint")
	}
	if err := a.Validate(); err != nil {
		t.Errorf("scanned spec fails Validate: %v", err)
	}
	if err := (Spec{Kind: KindTrace, TracePath: "x"}).Validate(); err == nil {
		t.Error("Validate accepted a trace spec not built from a scan")
	}
}

func TestTraceEventReplayMatchesFile(t *testing.T) {
	// Node ids wrap modulo n (=10 here): 15 -> 5; 12 -> 2; the 7->17 record
	// wraps to the self-send 7->7 and is dropped.
	path := writeTrace(t, "0,1,2\n0,15,3\n2,7,17\n3,12,4\n")
	spec, err := NewTraceSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	got := stream(spec.New(1, 10, 1), 5, 10, 1)
	want := [][]sim.Injection{
		{{Src: 1, Dst: 2}, {Src: 5, Dst: 3}},
		nil,
		nil, // 7->7 dropped
		{{Src: 2, Dst: 4}},
		nil,
	}
	for s := range want {
		if len(got[s]) != len(want[s]) || (len(want[s]) > 0 && !reflect.DeepEqual(got[s], want[s])) {
			t.Fatalf("slot %d: got %v, want %v", s, got[s], want[s])
		}
	}
}

func TestTraceRatePiecewiseConstantAndScaled(t *testing.T) {
	const n = 40
	// Rate 1 on [0,3), 0 on [3,6), 1 from 6 on: every node injects on full
	// slots, none on silent ones.
	path := writeTrace(t, "0,1\n3,0\n6,1\n")
	spec, err := NewTraceSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	for s, injs := range stream(spec.New(1, n, 1), 10, n, 2) {
		want := n
		if s >= 3 && s < 6 {
			want = 0
		}
		if len(injs) != want {
			t.Fatalf("slot %d: %d injections, want %d", s, len(injs), want)
		}
	}
	// Scale 0.5 halves the schedule: loaded slots go partial, silent stay
	// silent; scale <= 0 (the zero value) means replay as recorded.
	half := 0
	for s, injs := range stream(spec.New(0.5, n, 1), 10, n, 2) {
		if s >= 3 && s < 6 {
			if len(injs) != 0 {
				t.Fatalf("slot %d: scaled replay broke silence", s)
			}
		} else {
			half += len(injs)
		}
	}
	if half == 0 || half >= 7*n {
		t.Fatalf("scale 0.5 produced %d injections over 7 loaded slots of %d nodes", half, n)
	}
	asRecorded := stream(&Trace{Path: path, Form: TraceRates}, 10, n, 2)
	viaOne := stream(&Trace{Path: path, Form: TraceRates, Scale: 1}, 10, n, 2)
	if !reflect.DeepEqual(asRecorded, viaOne) {
		t.Fatal("zero Scale should replay as recorded (scale 1)")
	}
}

func TestTraceReplayDeterministic(t *testing.T) {
	var buf bytes.Buffer
	if err := SynthesizeTrace(&buf, SynthSpec{Form: TraceEvents, Slots: 300, Nodes: 24, Peak: 0.3, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	path := writeTrace(t, buf.String())
	spec, err := NewTraceSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	a := stream(spec.New(1, 24, 1), 320, 24, 7)
	b := stream(spec.New(1, 24, 1), 320, 24, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same trace replayed differently")
	}
	total := 0
	for _, injs := range a {
		total += len(injs)
	}
	if total == 0 {
		t.Fatal("synthesized event trace replayed no injections")
	}
}

func TestSynthesizeTraceDeterministicAndValid(t *testing.T) {
	for _, spec := range []SynthSpec{
		{Form: TraceRates, Slots: 2000, Window: 40, Peak: 0.5, Seed: 1},
		{Form: TraceRates, NDJSON: true, Slots: 500, Window: 25, Peak: 0.9, Seed: 2},
		{Form: TraceEvents, Slots: 200, Nodes: 16, Peak: 0.4, Seed: 3},
		{Form: TraceEvents, NDJSON: true, Slots: 100, Nodes: 8, Peak: 0.2, Seed: 4},
	} {
		var a, b bytes.Buffer
		if err := SynthesizeTrace(&a, spec); err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		if err := SynthesizeTrace(&b, spec); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%+v: synthesis is not deterministic", spec)
		}
		info, err := ScanTrace(writeTrace(t, a.String()))
		if err != nil {
			t.Fatalf("%+v: synthesized trace fails its own scanner: %v", spec, err)
		}
		if info.Form != spec.Form {
			t.Fatalf("%+v: synthesized form %s", spec, info.Form)
		}
	}
	for _, bad := range []SynthSpec{
		{Form: TraceRates, Slots: 0, Peak: 0.5},
		{Form: TraceEvents, Slots: 10, Nodes: 1, Peak: 0.5},
		{Form: TraceRates, Slots: 10, Peak: 0},
		{Form: TraceRates, Slots: 10, Peak: 1.5},
		{Slots: 10, Peak: 0.5},
	} {
		var w bytes.Buffer
		if err := SynthesizeTrace(&w, bad); err == nil {
			t.Errorf("SynthesizeTrace accepted %+v", bad)
		}
	}
}

// TestTraceReplayAllocBounded pins the tentpole memory bound: replaying a
// >= 100k-event trace allocates far less than the file size — the reader
// streams through a fixed window (bufio buffer + one pending record), it
// never loads the trace.
func TestTraceReplayAllocBounded(t *testing.T) {
	const slots, nodes = 3600, 48
	var buf bytes.Buffer
	if err := SynthesizeTrace(&buf, SynthSpec{Form: TraceEvents, Slots: slots, Nodes: nodes, Peak: 0.95, Seed: 6}); err != nil {
		t.Fatal(err)
	}
	path := writeTrace(t, buf.String())
	info, err := ScanTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records < 100_000 {
		t.Fatalf("synthesized only %d events; the bound needs >= 100k", info.Records)
	}
	fileSize := buf.Len()

	tr := &Trace{Path: path, Form: TraceEvents}
	scratch := make([]sim.Injection, 0, nodes)
	rng := rand.New(rand.NewSource(8))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	total := 0
	for s := 0; s < slots; s++ {
		out := tr.Generate(scratch[:0], s, nodes, rng)
		total += len(out)
	}
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc

	if total < 100_000 {
		t.Fatalf("replayed only %d of %d events", total, info.Records)
	}
	// O(window): the 64 KiB scanner buffer plus slack, not the ~1 MiB file.
	if limit := uint64(256 << 10); allocated > limit {
		t.Errorf("replaying a %d-byte trace allocated %d bytes (want <= %d: O(window), not O(file))",
			fileSize, allocated, limit)
	}
}

// TestTraceRunLoopAllocFree extends the steady-state 0 B/op contract to
// both trace forms (the trace counterpart of TestWorkloadRunLoopAllocFree;
// warmup both opens the file and reaches the ring buffers' high-water
// mark).
func TestTraceRunLoopAllocFree(t *testing.T) {
	const n = 72
	var events, rates bytes.Buffer
	if err := SynthesizeTrace(&events, SynthSpec{Form: TraceEvents, Slots: 20000, Nodes: n, Peak: 0.08, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	if err := SynthesizeTrace(&rates, SynthSpec{Form: TraceRates, Slots: 20000, Window: 20, Peak: 0.08, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	for name, content := range map[string]string{"events": events.String(), "rates": rates.String()} {
		t.Run(name, func(t *testing.T) {
			spec, err := NewTraceSpec(writeTrace(t, content))
			if err != nil {
				t.Fatal(err)
			}
			tr := spec.New(1, n, 6)
			rng := rand.New(rand.NewSource(3))
			var buf []sim.Injection
			slot := 0
			step := func() {
				buf = tr.Generate(buf[:0], slot, n, rng)
				slot++
			}
			for i := 0; i < 4000; i++ {
				step()
			}
			if allocs := testing.AllocsPerRun(500, step); allocs != 0 {
				t.Errorf("trace %s replay allocated %.2f times per slot in steady state", name, allocs)
			}
		})
	}
}

func TestTraceReplayPanicsWhenFileVanishes(t *testing.T) {
	path := writeTrace(t, "0,1,2\n1,2,3\n")
	spec, err := NewTraceSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("replaying a deleted trace did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "trace replay") {
			t.Fatalf("unexpected panic %v", r)
		}
	}()
	spec.New(1, 10, 1).Generate(nil, 0, 10, rand.New(rand.NewSource(1)))
}

// TestTraceClosedWhenRunEndsEarly runs a trace for fewer slots than it
// holds: Engine.Run must release its file and line buffer on return,
// instead of leaving them to the finalizer.
func TestTraceClosedWhenRunEndsEarly(t *testing.T) {
	spec, err := NewTraceSpec("../../examples/traces/day_rates.csv")
	if err != nil {
		t.Fatal(err)
	}
	topo := sim.NewStackTopology(stackkautz.New(3, 2, 2).StackGraph())
	tr := spec.New(1, topo.Nodes(), 3).(*Trace)
	cfg := sim.Config{Seed: 1}
	if m := sim.NewEngine(topo, cfg).Run(tr, 100, 0, cfg); m.Injected == 0 {
		t.Fatal("the trace injected nothing")
	}
	if !tr.opened || !tr.havePending {
		t.Fatalf("the run did not stop inside the trace (opened %v, record pending %v)", tr.opened, tr.havePending)
	}
	if tr.f != nil || tr.sc != nil {
		t.Fatal("Engine.Run returned with the trace file still open")
	}
}
