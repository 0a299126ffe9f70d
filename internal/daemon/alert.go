package daemon

import (
	"encoding/json"
	"math"
	"strconv"
	"time"
	"unicode/utf8"

	"lumen/internal/core"
)

// Alert is one JSONL line on a pipeline's alert sink: the verdict for a
// single scored unit (packet, flow, or group). Lines are newline-
// delimited JSON objects, one per unit, written in scoring order. The
// field-by-field schema is documented for operators in OPERATIONS.md.
type Alert struct {
	// TS is the wall-clock emission time of the line's batch (RFC 3339,
	// UTC, ns precision): one clock read per chunk's verdicts, or per
	// block of closed flows, so the lines of a batch share it.
	TS string `json:"ts"`
	// Pipeline is the emitting pipeline's registry name.
	Pipeline string `json:"pipeline"`
	// Seq is the stream chunk sequence number the unit was scored in,
	// or -1 for verdicts that are not a chunk's (Phase "flush").
	Seq int `json:"seq"`
	// Phase is "stream" for a chunk's verdicts, "flush" for the others:
	// a flow-granularity pipeline's, written a block of closed flows at
	// a time as the stream runs, and a barrier suffix's, written at
	// drain.
	Phase string `json:"phase"`
	// Unit names the scored row unit: "packet", "flow", or "group".
	Unit string `json:"unit"`
	// Index is the unit's global index in the ingested stream (packet
	// index or flow index), -1 when the pipeline drops the mapping.
	Index int `json:"index"`
	// Pred is the model's verdict: 1 anomalous, 0 benign.
	Pred int `json:"pred"`
	// Score is the positive-class score when the model exposes one.
	Score *float64 `json:"score,omitempty"`
	// Truth is the ground-truth label when the source carries labels
	// (replayed corpora); 0 on unlabeled live traffic.
	Truth int `json:"truth"`
	// Attack is the ground-truth attack name ("" = benign/unknown).
	Attack string `json:"attack,omitempty"`
	// ModelGen is the model generation that produced the verdict; it
	// increments on every promoted hot swap, so alerts remain
	// attributable across swaps.
	ModelGen int `json:"model_gen"`
}

// alertFlushBytes bounds the pipe's alert buffer: encoded lines past it
// are written out mid-range, so a batch of any length reuses the
// same few pages instead of growing one slice to hold it.
const alertFlushBytes = 64 << 10

// The append encoder below writes what json.Marshal(Alert) would, byte
// for byte (same key order, same omitempty rules, encoding/json's float
// and string formats), without reflection or allocation. A line is a
// per-batch constant prefix — every field up to the "index" key — plus
// the row's own fields; TestAlertLineMatchesEncodingJSON and
// FuzzAlertLine hold it to the oracle.

// appendAlertPrefix appends the part of an alert line that is constant
// over one writeRows batch. name is the pipeline name already encoded
// as a JSON string.
func appendAlertPrefix(dst []byte, ts time.Time, name []byte, seq int, phase, unit string) []byte {
	dst = append(dst, `{"ts":"`...)
	dst = ts.UTC().AppendFormat(dst, time.RFC3339Nano)
	dst = append(dst, `","pipeline":`...)
	dst = append(dst, name...)
	dst = append(dst, `,"seq":`...)
	dst = strconv.AppendInt(dst, int64(seq), 10)
	dst = append(dst, `,"phase":`...)
	dst = appendJSONString(dst, phase)
	dst = append(dst, `,"unit":`...)
	dst = appendJSONString(dst, unit)
	return append(dst, `,"index":`...)
}

// appendAlertRow appends prefix and row i of res as one newline-
// terminated alert line, its score's text through st. A NaN or ±Inf
// score has no JSON encoding: the line is written without the score
// key, as when the model exposes none, and nonFinite reports it.
func appendAlertRow(dst, prefix []byte, st *scoreTable, res *core.EvalResult, i, pred, gen int) (out []byte, nonFinite bool) {
	index, truth := -1, 0
	if i < len(res.UnitIdx) {
		index = res.UnitIdx[i]
	}
	if i < len(res.Truth) {
		truth = res.Truth[i]
	}
	dst = append(dst, prefix...)
	dst = strconv.AppendInt(dst, int64(index), 10)
	dst = append(dst, `,"pred":`...)
	dst = strconv.AppendInt(dst, int64(pred), 10)
	if i < len(res.Scores) {
		if s := res.Scores[i]; math.IsNaN(s) || math.IsInf(s, 0) {
			nonFinite = true
		} else {
			dst = append(dst, `,"score":`...)
			dst = st.append(dst, s)
		}
	}
	dst = append(dst, `,"truth":`...)
	dst = strconv.AppendInt(dst, int64(truth), 10)
	if i < len(res.Attacks) && res.Attacks[i] != "" {
		dst = append(dst, `,"attack":`...)
		dst = appendJSONString(dst, res.Attacks[i])
	}
	dst = append(dst, `,"model_gen":`...)
	dst = strconv.AppendInt(dst, int64(gen), 10)
	return append(dst, "}\n"...), nonFinite
}

// scoreTable remembers the text appendJSONFloat wrote for recent scores:
// one direct-mapped slot per hash of the score's bits. A model gives few
// distinct scores (a 99-node tree at most 50), and the shortest-digits
// search costs more than the rest of the line. Text longer than a slot
// is formatted every time.
type scoreTable [256]struct {
	bits uint64
	n    uint8 // 0: empty; any float's text is at least one byte
	text [23]byte
}

// append appends f as appendJSONFloat does.
func (t *scoreTable) append(dst []byte, f float64) []byte {
	bits := math.Float64bits(f)
	s := &t[scoreSlot(bits)]
	if s.n != 0 && s.bits == bits {
		return append(dst, s.text[:s.n]...)
	}
	start := len(dst)
	dst = appendJSONFloat(dst, f)
	if n := len(dst) - start; n <= len(s.text) {
		s.bits, s.n = bits, uint8(copy(s.text[:], dst[start:]))
	}
	return dst
}

// scoreSlot maps a score's bits to its slot (Fibonacci hashing: the top
// byte of the product mixes every mantissa bit in).
func scoreSlot(bits uint64) uint8 { return uint8((bits * 0x9e3779b97f4a7c15) >> 56) }

// appendJSONFloat appends a finite f in encoding/json's float64 format:
// ES6 number-to-string — shortest round-trip digits, exponent form only
// below 1e-6 or from 1e21, a negative exponent without its zero padding.
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// appendJSONString appends s as encoding/json writes a string (HTML-safe
// escaping on). Printable ASCII without `"`, `\`, `<`, `>`, `&` — every
// name this daemon generates — is copied between quotes; anything else
// takes the rare detour through json.Marshal itself.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= utf8.RuneSelf, c == '"', c == '\\', c == '<', c == '>', c == '&':
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
