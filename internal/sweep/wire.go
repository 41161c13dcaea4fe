package sweep

// Reflection-free JSON for the rows that cross the wire on every lease:
// shard rows in a worker's completion body (internal/coordinator) and
// result records on the NDJSON stream (internal/sweepserver). The
// appenders write exactly the bytes json.Marshal writes for the same
// value — same key order, same string escaping (HTML-safe, U+2028/2029,
// invalid UTF-8 as \ufffd), same float form — so a peer that encodes or
// decodes with encoding/json sees no difference.
//
// JSONCursor is the matching reader. It accepts only the canonical layout
// the appenders write: no whitespace, keys in struct order and case,
// strings of printable ASCII that need no escape, integers in int range
// without sign or leading-zero variants, no null. Everything else —
// hand-written bodies, other encoders' spacing — is turned down, and
// callers fall back to encoding/json, which stays the judge of what is
// valid: anything the cursor accepts, encoding/json accepts with an equal
// value (FuzzCompleteBodyMatchesDecodeStrict in internal/coordinator).

import (
	"bytes"
	"math"
	"strconv"
	"unicode/utf8"

	"otisnet/internal/sim"
)

// AppendMetricsJSON appends m as json.Marshal encodes it: every field,
// under its Go name, in declaration order.
func AppendMetricsJSON(b []byte, m *sim.Metrics) []byte {
	b = appendInt(append(b, `{"Slots":`...), m.Slots)
	b = appendInt(append(b, `,"Injected":`...), m.Injected)
	b = appendInt(append(b, `,"Delivered":`...), m.Delivered)
	b = appendInt(append(b, `,"Dropped":`...), m.Dropped)
	b = appendInt(append(b, `,"Deflections":`...), m.Deflections)
	b = appendInt(append(b, `,"TotalLatency":`...), m.TotalLatency)
	b = appendInt(append(b, `,"TotalHops":`...), m.TotalHops)
	b = appendInt(append(b, `,"PeakQueue":`...), m.PeakQueue)
	b = appendInt(append(b, `,"Backlog":`...), m.Backlog)
	b = appendInt(append(b, `,"Unroutable":`...), m.Unroutable)
	b = appendInt(append(b, `,"LostToFaults":`...), m.LostToFaults)
	b = appendInt(append(b, `,"Reroutes":`...), m.Reroutes)
	b = appendInt(append(b, `,"RecoverySlots":`...), m.RecoverySlots)
	return append(b, '}')
}

// AppendShardResultsJSON appends rows as json.Marshal encodes the slice:
// null when nil, and the omitempty key and cached fields left out of each
// row that has none.
func AppendShardResultsJSON(b []byte, rows []ShardResult) []byte {
	if rows == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		r := &rows[i]
		b = appendInt(append(b, `{"index":`...), r.Index)
		if r.Key != "" {
			b = AppendJSONString(append(b, `,"key":`...), r.Key)
		}
		if r.Cached {
			b = append(b, `,"cached":true`...)
		}
		b = AppendMetricsJSON(append(b, `,"metrics":`...), &r.Metrics)
		b = append(b, '}')
	}
	return append(b, ']')
}

// AppendRecordFields appends r's members as json.Marshal writes them
// between the braces, so callers can embed a Record in a wider object.
// When a float is NaN or ±Inf, values encoding/json refuses to encode,
// it appends nothing and returns false; the caller should let
// encoding/json report the error.
func AppendRecordFields(b []byte, r *Record) ([]byte, bool) {
	for _, v := range [...]float64{r.Rate, r.Throughput, r.AvgLatency, r.AvgHops} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return b, false
		}
	}
	b = AppendJSONString(append(b, `"topology":`...), r.Topology)
	b = AppendJSONString(append(b, `,"traffic":`...), r.Traffic)
	b = AppendJSONString(append(b, `,"workload":`...), r.Workload)
	b = appendJSONFloat(append(b, `,"rate":`...), r.Rate)
	b = AppendJSONString(append(b, `,"mode":`...), r.Mode)
	b = appendInt(append(b, `,"wavelengths":`...), r.Wavelengths)
	b = AppendJSONString(append(b, `,"fault":`...), r.Fault)
	b = strconv.AppendInt(append(b, `,"seed":`...), r.Seed, 10)
	b = appendInt(append(b, `,"slots":`...), r.Slots)
	b = appendInt(append(b, `,"injected":`...), r.Injected)
	b = appendInt(append(b, `,"delivered":`...), r.Delivered)
	b = appendInt(append(b, `,"dropped":`...), r.Dropped)
	b = appendInt(append(b, `,"backlog":`...), r.Backlog)
	b = appendJSONFloat(append(b, `,"throughput":`...), r.Throughput)
	b = appendJSONFloat(append(b, `,"avg_latency":`...), r.AvgLatency)
	b = appendJSONFloat(append(b, `,"avg_hops":`...), r.AvgHops)
	b = appendInt(append(b, `,"peak_queue":`...), r.PeakQueue)
	b = appendInt(append(b, `,"deflections":`...), r.Deflections)
	b = appendInt(append(b, `,"unroutable":`...), r.Unroutable)
	b = appendInt(append(b, `,"lost_to_faults":`...), r.LostToFaults)
	b = appendInt(append(b, `,"reroutes":`...), r.Reroutes)
	b = appendInt(append(b, `,"recovery_slots":`...), r.RecoverySlots)
	return b, true
}

// appendJSONFloat appends a finite v in encoding/json's float64 form: 'f'
// format, or 'e' below 1e-6 and from 1e21 on, with a one-digit negative
// exponent unpadded.
func appendJSONFloat(b []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// jsonRaw marks the ASCII bytes encoding/json writes unescaped: printable
// ASCII and DEL, except the quote, the backslash and the HTML-sensitive
// <, > and &.
var jsonRaw = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// AppendJSONString appends s quoted and escaped as json.Marshal does it.
func AppendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonRaw[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// JSONCursor reads the canonical layout the appenders above write. Its
// reads are sticky: after the first mismatch every later read returns a
// zero value, and OK reports false, so a caller walks a whole document
// and checks once at the end.
type JSONCursor struct {
	b   []byte
	i   int
	bad bool
}

// NewJSONCursor starts a cursor at the first byte of b.
func NewJSONCursor(b []byte) JSONCursor { return JSONCursor{b: b} }

// OK reports that every read matched and the input is fully consumed.
func (c *JSONCursor) OK() bool { return !c.bad && c.i == len(c.b) }

// Lit consumes the literal s.
func (c *JSONCursor) Lit(s string) {
	if !c.skip(s) {
		c.bad = true
	}
}

// skip consumes s when the input continues with it, and reports whether
// it did; a missing s is no mismatch.
func (c *JSONCursor) skip(s string) bool {
	if c.bad || len(c.b)-c.i < len(s) || string(c.b[c.i:c.i+len(s)]) != s {
		return false
	}
	c.i += len(s)
	return true
}

// Str reads a quoted string made only of bytes AppendJSONString writes
// raw. Any escape, control byte or non-ASCII byte is a mismatch.
func (c *JSONCursor) Str() string {
	if c.bad || c.i >= len(c.b) || c.b[c.i] != '"' {
		c.bad = true
		return ""
	}
	start := c.i + 1
	for j := start; j < len(c.b); j++ {
		if ch := c.b[j]; ch == '"' {
			c.i = j + 1
			return string(c.b[start:j])
		} else if ch >= utf8.RuneSelf || !jsonRaw[ch] {
			break
		}
	}
	c.bad = true
	return ""
}

// Int reads a base-10 integer as strconv.AppendInt writes it: an optional
// minus, no leading zero, no "-0", no fraction or exponent (the next read
// fails on them), and within the range of int.
func (c *JSONCursor) Int() int {
	if c.bad {
		return 0
	}
	b, i := c.b, c.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var v uint64
	for ; i < len(b) && i-start < 19 && '0' <= b[i] && b[i] <= '9'; i++ {
		v = v*10 + uint64(b[i]-'0') // 19 digits cannot overflow uint64
	}
	digits := i - start
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	if digits == 0 || (i < len(b) && '0' <= b[i] && b[i] <= '9') ||
		(b[start] == '0' && (digits > 1 || neg)) || v > limit {
		c.bad = true
		return 0
	}
	n := int64(v) // wraps to MinInt64 exactly when v == limit for a negative
	if neg {
		n = -n
	}
	if int64(int(n)) != n {
		c.bad = true
		return 0
	}
	c.i = i
	return int(n)
}

// metrics reads one AppendMetricsJSON object.
func (c *JSONCursor) metrics(m *sim.Metrics) {
	c.Lit(`{"Slots":`)
	m.Slots = c.Int()
	c.Lit(`,"Injected":`)
	m.Injected = c.Int()
	c.Lit(`,"Delivered":`)
	m.Delivered = c.Int()
	c.Lit(`,"Dropped":`)
	m.Dropped = c.Int()
	c.Lit(`,"Deflections":`)
	m.Deflections = c.Int()
	c.Lit(`,"TotalLatency":`)
	m.TotalLatency = c.Int()
	c.Lit(`,"TotalHops":`)
	m.TotalHops = c.Int()
	c.Lit(`,"PeakQueue":`)
	m.PeakQueue = c.Int()
	c.Lit(`,"Backlog":`)
	m.Backlog = c.Int()
	c.Lit(`,"Unroutable":`)
	m.Unroutable = c.Int()
	c.Lit(`,"LostToFaults":`)
	m.LostToFaults = c.Int()
	c.Lit(`,"Reroutes":`)
	m.Reroutes = c.Int()
	c.Lit(`,"RecoverySlots":`)
	m.RecoverySlots = c.Int()
	c.Lit(`}`)
}

// rowOpen starts every canonical shard row; counting it sizes the slice.
var rowOpen = []byte(`{"index":`)

// ShardResults reads one AppendShardResultsJSON array other than null,
// into a slice allocated once at its final length ([] gives an empty,
// non-nil slice, as encoding/json does). Each row allocates only its key.
func (c *JSONCursor) ShardResults() []ShardResult {
	c.Lit(`[`)
	if c.bad {
		return nil
	}
	if c.skip(`]`) {
		return []ShardResult{}
	}
	rows := make([]ShardResult, 0, bytes.Count(c.b[c.i:], rowOpen))
	for !c.bad {
		var r ShardResult
		c.Lit(`{"index":`)
		r.Index = c.Int()
		if c.skip(`,"key":`) {
			if r.Key = c.Str(); r.Key == "" {
				c.bad = true // the appender omits an empty key
			}
		}
		r.Cached = c.skip(`,"cached":true`)
		c.Lit(`,"metrics":`)
		c.metrics(&r.Metrics)
		c.Lit(`}`)
		if c.bad {
			return nil
		}
		rows = append(rows, r)
		if c.skip(`]`) {
			return rows
		}
		c.Lit(`,`)
	}
	return nil
}
