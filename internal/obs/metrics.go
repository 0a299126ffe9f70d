package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Metrics is a registry of named instruments. Instruments are identified
// by a family name plus an optional fixed label set ("k1", "v1", "k2",
// "v2", ...); asking for the same (name, labels) again returns the same
// instrument, so call sites may re-resolve instead of caching.
//
// A nil Metrics is the disabled state: it hands out nil instruments
// whose methods are all no-ops.
type Metrics struct {
	mu   sync.Mutex
	fams map[string]*family
}

// family is one metric name: its metadata plus every label combination.
type family struct {
	name, help, kind string
	buckets          []float64      // histograms only
	series           map[string]any // rendered label string → instrument
	order            []string       // insertion order of label strings
}

// NewMetrics returns an empty, enabled registry.
func NewMetrics() *Metrics {
	return &Metrics{fams: map[string]*family{}}
}

// Counter returns the monotonically-increasing counter for (name,
// labels), creating it on first use. By Prometheus convention the name
// should end in "_total". Registering a name that already exists as a
// different instrument kind panics.
func (m *Metrics) Counter(name, help string, labels ...string) *Counter {
	if m == nil {
		return nil
	}
	v := m.instrument(name, help, "counter", nil, labels)
	return v.(*Counter)
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (m *Metrics) Gauge(name, help string, labels ...string) *Gauge {
	if m == nil {
		return nil
	}
	v := m.instrument(name, help, "gauge", nil, labels)
	return v.(*Gauge)
}

// Histogram returns the fixed-bucket histogram for (name, labels),
// creating it on first use with the given upper bounds (ascending; an
// implicit +Inf bucket is always appended). buckets is only consulted at
// creation; nil means DefDurationBuckets.
func (m *Metrics) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if m == nil {
		return nil
	}
	v := m.instrument(name, help, "histogram", buckets, labels)
	return v.(*Histogram)
}

// instrument resolves or creates a series under its family.
func (m *Metrics) instrument(name, help, kind string, buckets []float64, labels []string) any {
	ls := renderLabels(labels)
	m.mu.Lock()
	defer m.mu.Unlock()
	fam := m.fams[name]
	if fam == nil {
		if kind == "histogram" && buckets == nil {
			buckets = DefDurationBuckets
		}
		fam = &family{name: name, help: help, kind: kind, buckets: buckets, series: map[string]any{}}
		m.fams[name] = fam
	} else if fam.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, fam.kind, kind))
	}
	if inst, ok := fam.series[ls]; ok {
		return inst
	}
	var inst any
	switch kind {
	case "counter":
		inst = &Counter{}
	case "gauge":
		inst = &Gauge{}
	case "histogram":
		inst = newHistogram(fam.buckets)
	}
	fam.series[ls] = inst
	fam.order = append(fam.order, ls)
	return inst
}

// renderLabels canonicalizes a flat key/value list into the Prometheus
// label syntax, sorting by key so label order at the call site does not
// split series. An odd trailing key is ignored. Values are escaped per
// the exposition format (backslash, quote, newline).
func renderLabels(labels []string) string {
	n := len(labels) / 2
	if n == 0 {
		return ""
	}
	type kv struct{ k, v string }
	pairs := make([]kv, n)
	for i := 0; i < n; i++ {
		pairs[i] = kv{labels[2*i], labels[2*i+1]}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// DefDurationBuckets is the default histogram bucketing, in seconds,
// spanning sub-millisecond ops up to multi-second suite batches.
var DefDurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Counter is a monotonically increasing integer. Nil-safe.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can go up and down. Nil-safe.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets and tracks their sum,
// Prometheus-style (cumulative buckets with a trailing +Inf). Nil-safe.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds, +Inf excluded
	counts []uint64  // len(bounds)+1; last = +Inf bucket
	sum    float64
	total  uint64
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.total++
	h.mu.Unlock()
}

// snapshot returns bounds plus cumulative counts, sum and total.
func (h *Histogram) snapshot() (bounds []float64, cum []uint64, sum float64, total uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum = make([]uint64, len(h.counts))
	var acc uint64
	for i, c := range h.counts {
		acc += c
		cum[i] = acc
	}
	return h.bounds, cum, h.sum, h.total
}
