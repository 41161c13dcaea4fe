package coordinator_test

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"otisnet/internal/coordinator"
	"otisnet/internal/sim"
	"otisnet/internal/sweep"
)

// randomCompleteRequest draws a completion: nil, empty or filled rows,
// rows with and without keys and cached flags, and (when plain is false)
// envelope strings and keys that need escaping.
func randomCompleteRequest(rng *rand.Rand, plain bool) coordinator.CompleteRequest {
	strs := []string{"", "w1", "L17", "s42", "worker-7.host:9", "0123456789abcdef"}
	if !plain {
		strs = append(strs, `q"b\s`, "nl\n\t\x01", "<&>", "é世🙂", "\u2028\u2029", "bad\xffutf8")
	}
	str := func() string { return strs[rng.Intn(len(strs))] }
	n := func() int {
		switch rng.Intn(3) {
		case 0:
			return rng.Intn(10)
		case 1:
			return rng.Intn(1 << 20)
		default:
			return int(rng.Uint64())
		}
	}
	req := coordinator.CompleteRequest{LeaseID: str(), Job: str(), Shard: n(), Epoch: n(), Worker: str()}
	if rows := rng.Intn(6) - 1; rows >= 0 {
		req.Rows = make([]sweep.ShardResult, rows)
	}
	for i := range req.Rows {
		req.Rows[i] = sweep.ShardResult{Index: n(), Cached: rng.Intn(2) == 0, Metrics: sim.Metrics{
			Slots: n(), Injected: n(), Delivered: n(), Dropped: n(), Deflections: n(), TotalLatency: n(),
			TotalHops: n(), PeakQueue: n(), Backlog: n(), Unroutable: n(), LostToFaults: n(),
			Reroutes: n(), RecoverySlots: n()}}
		if rng.Intn(4) > 0 {
			req.Rows[i].Key = str()
		}
	}
	return req
}

// TestCompleteRequestAppendMatchesMarshal holds AppendJSON to json.Marshal's
// bytes on random requests, and ParseCanonical to reading back every one
// whose strings need no escape and whose rows are not nil.
func TestCompleteRequestAppendMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		plain := trial%2 == 0
		req := randomCompleteRequest(rng, plain)
		want, err := json.Marshal(&req)
		if err != nil {
			t.Fatal(err)
		}
		got := req.AppendJSON(nil)
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON:\n got %s\nwant %s", got, want)
		}
		var back coordinator.CompleteRequest
		ok := back.ParseCanonical(got)
		if plain && req.Rows != nil && !ok {
			t.Fatalf("ParseCanonical turned down its own layout: %s", got)
		}
		if ok && !reflect.DeepEqual(back, req) {
			t.Fatalf("ParseCanonical read %+v from %s, want %+v", back, got, req)
		}
	}
}

// FuzzCompleteBodyMatchesDecodeStrict feeds arbitrary bytes to both
// decoders of the complete endpoint. Whenever ParseCanonical accepts,
// DecodeStrict must accept and decode an equal request, and the body must
// be exactly what AppendJSON writes for it; when it turns a body down it
// must leave the request zero for the fallback. Whenever DecodeStrict
// accepts, AppendJSON must write json.Marshal's bytes for the decoded
// value, whatever its strings hold.
func FuzzCompleteBodyMatchesDecodeStrict(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		req := randomCompleteRequest(rng, i%2 == 0)
		f.Add(req.AppendJSON(nil))
	}
	f.Add([]byte(`{"lease_id":"L1","job":"s1","shard":0,"epoch":1,"worker":"w1","rows":[]}`))
	f.Add([]byte(`{"lease_id":"L1","job":"s1","shard":0,"epoch":1,"worker":"w1","rows":null}`))
	f.Add([]byte(`{"lease_id":"L1","job":"s1","shard":-0,"epoch":01,"worker":"w\u0031","rows":[]}`))
	f.Add([]byte(`{"lease_id":"L1","job":"s1","shard":1.0,"epoch":1e2,"worker":"w1","rows":[{"index":0,"key":"","cached":false,"metrics":{}}]}`))
	f.Add([]byte(` {"LEASE_ID":"L1","job":"s1","shard":0,"epoch":1,"worker":"w1","rows":[]} `))
	f.Fuzz(func(t *testing.T, body []byte) {
		var fast coordinator.CompleteRequest
		accepted := fast.ParseCanonical(body)
		var slow coordinator.CompleteRequest
		err := coordinator.DecodeStrict(bytes.NewReader(body), &slow)
		if accepted {
			if err != nil {
				t.Fatalf("ParseCanonical accepted a body DecodeStrict rejects (%v): %q", err, body)
			}
			if !reflect.DeepEqual(fast, slow) {
				t.Fatalf("ParseCanonical read %+v, DecodeStrict %+v, from %q", fast, slow, body)
			}
			if enc := fast.AppendJSON(nil); !bytes.Equal(enc, body) {
				t.Fatalf("ParseCanonical accepted a non-canonical body %q (canonical %q)", body, enc)
			}
		} else if !reflect.DeepEqual(fast, coordinator.CompleteRequest{}) {
			t.Fatalf("ParseCanonical turned %q down but left %+v behind", body, fast)
		}
		if err == nil {
			want, merr := json.Marshal(&slow)
			if merr != nil {
				t.Fatal(merr)
			}
			if got := slow.AppendJSON(nil); !bytes.Equal(got, want) {
				t.Fatalf("AppendJSON of %+v:\n got %s\nwant %s", slow, got, want)
			}
		}
	})
}

// trioShardRequest is a completion the size of one trio-warm shard: 54
// rows (432 points over 8 shards), each with a 64-hex key.
func trioShardRequest() coordinator.CompleteRequest {
	rng := rand.New(rand.NewSource(3))
	req := coordinator.CompleteRequest{LeaseID: "L123", Job: "s17", Shard: 5, Epoch: 2, Worker: "w-1"}
	req.Rows = make([]sweep.ShardResult, 54)
	for i := range req.Rows {
		var key [32]byte
		rng.Read(key[:])
		req.Rows[i] = sweep.ShardResult{Index: 5 + 8*i, Key: hex.EncodeToString(key[:]), Cached: true,
			Metrics: sim.Metrics{Slots: 3000, Injected: 1000 + rng.Intn(20000), Delivered: 1000 + rng.Intn(20000),
				Dropped: rng.Intn(100), TotalLatency: rng.Intn(1 << 20), TotalHops: rng.Intn(1 << 18), PeakQueue: rng.Intn(50),
				Backlog: rng.Intn(500)}}
	}
	return req
}

// TestParseCanonicalAllocs pins the canonical read of a completion at one
// allocation for the rows slice, one per row for its key, and one for each
// of the three envelope strings.
func TestParseCanonicalAllocs(t *testing.T) {
	req := trioShardRequest()
	body := req.AppendJSON(nil)
	var got coordinator.CompleteRequest
	if !got.ParseCanonical(body) || !reflect.DeepEqual(got, req) {
		t.Fatalf("ParseCanonical did not read back its own layout")
	}
	want := float64(1 + len(req.Rows) + 3)
	if n := testing.AllocsPerRun(50, func() { got.ParseCanonical(body) }); n != want {
		t.Errorf("ParseCanonical of %d rows made %v allocations, want %v", len(req.Rows), n, want)
	}
	buf := make([]byte, 0, 2*len(body))
	if n := testing.AllocsPerRun(50, func() { buf = req.AppendJSON(buf[:0]) }); n != 0 {
		t.Errorf("AppendJSON into a presized buffer made %v allocations, want 0", n)
	}
}
