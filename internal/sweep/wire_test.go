package sweep

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"otisnet/internal/sim"
)

// wireStrings need every escape branch of encoding/json: quotes,
// backslashes, control bytes, HTML-sensitive bytes, DEL, U+2028/2029,
// invalid UTF-8 and multi-byte runes that pass through raw.
var wireStrings = []string{
	"", "w1", "SK(6,3,2) N=72 couplers=48", "hotspot g1 0.4",
	`quote " and \ backslash`, "tab\tnl\nbs\bff\fcr\r", "\x00\x01\x1f\x7f",
	"<b>&amp;</b>", "line\u2028para\u2029", "bad \xff\xfe utf8 \xe2\x80", "héllo 世界 🙂",
}

func randomMetrics(rng *rand.Rand) sim.Metrics {
	v := func() int {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return rng.Intn(100000)
		case 2:
			return -rng.Intn(1000)
		default:
			return int(rng.Uint64())
		}
	}
	return sim.Metrics{Slots: v(), Injected: v(), Delivered: v(), Dropped: v(), Deflections: v(),
		TotalLatency: v(), TotalHops: v(), PeakQueue: v(), Backlog: v(), Unroutable: v(),
		LostToFaults: v(), Reroutes: v(), RecoverySlots: math.MinInt64}
}

// TestAppendersMatchJSONMarshal holds the appenders to json.Marshal's bytes
// on random rows: nil and empty slices, omitted and escape-needing keys,
// cached and uncached rows, extreme integers, and records whose floats
// take every encoding/json form or none (NaN, -Inf).
func TestAppendersMatchJSONMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		m := randomMetrics(rng)
		want, _ := json.Marshal(m)
		if got := AppendMetricsJSON(nil, &m); !bytes.Equal(got, want) {
			t.Fatalf("metrics:\n got %s\nwant %s", got, want)
		}

		var rows []ShardResult
		if n := rng.Intn(5); n > 0 || rng.Intn(2) == 0 {
			rows = make([]ShardResult, n)
		}
		for i := range rows {
			rows[i] = ShardResult{Index: rng.Intn(1000) - 10, Cached: rng.Intn(2) == 0, Metrics: randomMetrics(rng)}
			if rng.Intn(3) > 0 {
				rows[i].Key = wireStrings[rng.Intn(len(wireStrings))]
			}
		}
		want, _ = json.Marshal(rows)
		if got := AppendShardResultsJSON(nil, rows); !bytes.Equal(got, want) {
			t.Fatalf("rows:\n got %s\nwant %s", got, want)
		}

		floats := []float64{0, math.Copysign(0, -1), 5e-324, 1e-7, 0.3, 1.0 / 3, 2.5e6, 1e21, math.NaN(), math.Inf(-1)}
		f := func() float64 { return floats[rng.Intn(len(floats))] }
		str := func() string { return wireStrings[rng.Intn(len(wireStrings))] }
		r := NewRecord(Result{Metrics: m})
		r.Topology, r.Traffic, r.Workload, r.Mode, r.Fault = str(), str(), str(), str(), str()
		r.Rate, r.Throughput, r.AvgLatency, r.AvgHops, r.Seed = f(), f(), f(), f(), int64(rng.Uint64())
		want, err := json.Marshal(r)
		got, ok := AppendRecordFields([]byte("{"), &r)
		if ok != (err == nil) || ok && !bytes.Equal(append(got, '}'), want) {
			t.Fatalf("record (ok %v, json.Marshal error %v):\n got %s}\nwant %s", ok, err, got, want)
		}
	}
}

// TestAppendJSONFloatForms covers every branch of encoding/json's float
// form, and the non-finite values it refuses, on which AppendRecordFields
// must append nothing.
func TestAppendJSONFloatForms(t *testing.T) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1, -1, 0.3, 1.0 / 3, 1e-6, 9.99e-7, 1e-7, -1e-9,
		5e-324, 2.2250738585072014e-308, 1e20, 1e21, -1e21, 123456789e13, math.MaxFloat64, 0.1 + 0.2} {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, v); !bytes.Equal(got, want) {
			t.Errorf("%v: got %s, want %s", v, got, want)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, r := range []Record{{Rate: v}, {Throughput: v}, {AvgLatency: v}, {AvgHops: v}} {
			if got, ok := AppendRecordFields([]byte("x"), &r); ok || string(got) != "x" {
				t.Errorf("%+v: appended %q (ok %v) for a value encoding/json refuses", r, got, ok)
			}
		}
	}
}

// TestJSONCursorCanonicalOnly pins what the cursor turns down, field by
// field: every rejected spelling is one encoding/json would accept or
// reject on its own, never one the appenders write.
func TestJSONCursorCanonicalOnly(t *testing.T) {
	ints := map[string]bool{
		"0": true, "7": true, "-7": true, "123456": true,
		"9223372036854775807": true, "-9223372036854775808": true,
		"": false, "-": false, "01": false, "-0": false, "+1": false, " 1": false,
		"1.5": false, "1e3": false, "1E3": false, "1.0": false,
		"9223372036854775808": false, "-9223372036854775809": false,
		"99999999999999999999": false, "null": false, `"1"`: false,
	}
	for in, want := range ints {
		c := NewJSONCursor([]byte(in))
		c.Int()
		if c.OK() != want {
			t.Errorf("Int(%q) accepted=%v, want %v", in, c.OK(), want)
		}
	}
	strs := map[string]bool{
		`""`: true, `"w1"`: true, `"a b~!#$%()*+,-./:;=?@[]^_{|}` + "\x7f" + `"`: true,
		`"1"`: true, `"a\"b"`: false, `"a\\b"`: false, `"<"`: false, `">"`: false, `"&"`: false,
		"\"\t\"": false, "\"\x00\"": false, `"é"`: false, `"unterminated`: false, `null`: false, `w1`: false,
	}
	for in, want := range strs {
		c := NewJSONCursor([]byte(in))
		c.Str()
		if c.OK() != want {
			t.Errorf("Str(%q) accepted=%v, want %v", in, c.OK(), want)
		}
	}
	m := sim.Metrics{Slots: 3000, Injected: 12, Delivered: 11, Backlog: 1}
	row := AppendShardResultsJSON(nil, []ShardResult{{Index: 4, Key: "ab", Cached: true, Metrics: m}})
	rows := map[string]bool{
		string(row): true,
		`[]`:        true,
		`null`:      false,
		`[ ]`:       false,
		string(bytes.Replace(row, []byte(`"key":"ab"`), []byte(`"key":""`), 1)):          false,
		string(bytes.Replace(row, []byte(`"cached":true`), []byte(`"cached":false`), 1)): false,
		string(bytes.Replace(row, []byte(`"Slots"`), []byte(`"slots"`), 1)):              false,
		string(bytes.Replace(row, []byte(`,"cached":true`), nil, 1)) + "x":               false,
		string(bytes.Replace(row, []byte(`"index":4,`), []byte(`"index":4, `), 1)):       false,
	}
	for in, want := range rows {
		c := NewJSONCursor([]byte(in))
		got := c.ShardResults()
		if c.OK() != want {
			t.Errorf("ShardResults(%s) accepted=%v, want %v", in, c.OK(), want)
		}
		if c.OK() && in != string(AppendShardResultsJSON(nil, got)) {
			t.Errorf("ShardResults(%s) read %+v, which does not encode back to the input", in, got)
		}
	}
}

// TestShardIndicesPresized checks the strided rule and that both slices of
// a shard are allocated once at their final length.
func TestShardIndicesPresized(t *testing.T) {
	points := make([]Scenario, 10)
	for _, tc := range []struct{ shard, shards int }{{0, 1}, {0, 3}, {1, 3}, {2, 3}, {3, 4}, {9, 10}, {11, 12}} {
		sh, err := ShardPoints(points, tc.shard, tc.shards)
		if err != nil {
			t.Fatal(err)
		}
		var want []int
		for i := tc.shard; i < len(points); i += tc.shards {
			want = append(want, i)
		}
		if len(sh.Indices) != len(want) || cap(sh.Indices) != len(want) || cap(sh.Points) != len(want) {
			t.Errorf("shard %d/%d: %d indices (cap %d, points cap %d), want %d",
				tc.shard, tc.shards, len(sh.Indices), cap(sh.Indices), cap(sh.Points), len(want))
		}
		for k := range want {
			if sh.Indices[k] != want[k] {
				t.Errorf("shard %d/%d: indices %v, want %v", tc.shard, tc.shards, sh.Indices, want)
				break
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { ShardPoints(points, 1, 3) }); n != 2 {
		t.Errorf("ShardPoints made %v allocations, want 2 (indices and points)", n)
	}
	for _, bad := range []struct{ shard, shards int }{{0, 0}, {-1, 2}, {2, 2}} {
		if _, err := ShardIndices(10, bad.shard, bad.shards); err == nil {
			t.Errorf("ShardIndices(10, %d, %d) accepted", bad.shard, bad.shards)
		}
	}
}
