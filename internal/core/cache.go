package core

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"sync"
	"unsafe"

	"lumen/internal/dataset"
	"lumen/internal/flow"
	"lumen/internal/obs"
)

// Cache shares the results of stateless operations across engines — the
// paper's "we construct the evaluation pipeline such that intermediate
// results are shared across algorithms". When the benchmarking suite
// evaluates many algorithms on the same datasets, flow assembly and
// feature extraction run once per (op, params, input) instead of once
// per run.
//
// Only stateless, mode-independent ops participate (field extraction,
// flow assembly, feature computation, grouping, aggregation...); anything
// fitted on training data (scalers, filters, models) never does. Values
// are keyed by lineage (see lineageKeys), and only a pass that reads a
// whole dataset as one chunk consults the cache:
// Engine.TrainStream/TestStream with no chunk bounds, no hooks and Online
// off, which Train and Test are. Such a pass looks up every op with a
// key, streamed over its one chunk, flow sink or flush op alike.
//
// The cache is safe for concurrent use by many engines. Concurrent
// misses on the same key are deduplicated singleflight-style: one caller
// computes, the rest block until the result is published (counted as
// DedupWaits in Stats). Cached values are shared by reference across
// engines and MUST be treated as immutable by every op.
//
// Entries are never dropped: a suite keeps one cache for one run, over
// datasets it holds for the whole run anyway. Byte sizes are estimated
// per value so long suite runs can observe cache growth via
// Stats().Bytes.
type Cache struct {
	mu       sync.Mutex
	entries  map[string]*cacheEntry
	inflight map[string]*flight
	bytes    int64

	hits, misses, dedupWaits int

	// om mirrors the counters above into an obs.Metrics registry when one
	// is attached (see SetMetrics). All instruments are nil-safe, so the
	// zero value means "no registry" without extra branches.
	om cacheMetrics
}

// cacheMetrics holds the pre-resolved instruments for cache activity.
type cacheMetrics struct {
	hits, misses, dedupWaits *obs.Counter
	entries, bytes           *obs.Gauge
}

// SetMetrics mirrors cache activity into m: lumen_cache_{hits,misses,
// dedup_waits}_total counters plus lumen_cache_entries and
// lumen_cache_bytes gauges. A nil m detaches nothing and is a no-op;
// counters registered by an earlier call keep their accumulated values.
func (c *Cache) SetMetrics(m *obs.Metrics) {
	if m == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.om = cacheMetrics{
		hits:       m.Counter("lumen_cache_hits_total", "Cache lookups served from a stored entry."),
		misses:     m.Counter("lumen_cache_misses_total", "Cache lookups that started a computation."),
		dedupWaits: m.Counter("lumen_cache_dedup_waits_total", "Cache lookups that blocked on another engine's in-flight computation."),
		entries:    m.Gauge("lumen_cache_entries", "Entries currently stored in the shared cache."),
		bytes:      m.Gauge("lumen_cache_bytes", "Estimated resident bytes of stored cache values."),
	}
	c.syncGauges()
}

// syncGauges publishes the current entry count and byte estimate. Caller
// holds mu.
func (c *Cache) syncGauges() {
	c.om.entries.Set(float64(len(c.entries)))
	c.om.bytes.Set(float64(c.bytes))
}

// cacheEntry is one stored value. root is the dataset the key's lineage
// starts from, held so its address cannot be reused while the key names
// it.
type cacheEntry struct {
	val   Value
	root  *dataset.Labeled
	bytes int64
}

// flight is one in-progress computation; waiters block on done.
type flight struct {
	done chan struct{}
	val  Value
	err  error
}

// CacheStats is a snapshot of cache activity. Misses counts
// computations actually started — under singleflight it equals the
// number of distinct keys computed, and Entries when no computation
// failed — while DedupWaits counts lookups that blocked on another
// engine's in-flight computation instead of recomputing.
type CacheStats struct {
	Hits       int   `json:"hits"`
	Misses     int   `json:"misses"`
	DedupWaits int   `json:"dedup_waits"`
	Entries    int   `json:"entries"`
	Bytes      int64 `json:"bytes"`
}

// NewCache returns an empty shared cache.
func NewCache() *Cache {
	return &Cache{
		entries:  make(map[string]*cacheEntry),
		inflight: make(map[string]*flight),
	}
}

// Stats returns a snapshot of cache activity.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:       c.hits,
		Misses:     c.misses,
		DedupWaits: c.dedupWaits,
		Entries:    len(c.entries),
		Bytes:      c.bytes,
	}
}

// getOrCompute returns the value for key, running compute at most once
// across all concurrent callers: a cached value is returned immediately;
// a lookup that races an in-flight computation blocks until that
// computation publishes; otherwise this caller computes and publishes.
// computed reports whether THIS caller ran compute (for profiling
// attribution). Errors are propagated to all waiters and never cached.
// A stored entry holds root, the dataset key's lineage starts from.
func (c *Cache) getOrCompute(key string, root *dataset.Labeled, compute func() (Value, error)) (v Value, err error, computed bool) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		c.om.hits.Inc()
		c.mu.Unlock()
		return e.val, nil, false
	}
	if f, ok := c.inflight[key]; ok {
		c.dedupWaits++
		c.om.dedupWaits.Inc()
		c.mu.Unlock()
		<-f.done
		return f.val, f.err, false
	}
	c.misses++
	c.om.misses.Inc()
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	finished := false
	defer func() {
		c.mu.Lock()
		delete(c.inflight, key)
		if finished && f.err == nil {
			// Singleflight makes this the key's only insert.
			e := &cacheEntry{val: f.val, root: root, bytes: valueBytes(f.val)}
			c.entries[key] = e
			c.bytes += e.bytes
			c.syncGauges()
		} else if !finished {
			// compute panicked; unblock waiters with an error instead of
			// leaving them parked forever, then let the panic propagate.
			f.err = fmt.Errorf("core: cache: computation for key %q panicked", key)
		}
		c.mu.Unlock()
		close(f.done)
	}()
	f.val, f.err = compute()
	finished = true
	return f.val, f.err, true
}

// valueBytes estimates the resident size of a cached value. Estimates
// ignore struct headers beyond a small per-element constant and may
// double-count backing arrays shared between values (e.g. a Grouped and
// the Frame it wraps); they exist for observability, not exact memory
// attribution.
func valueBytes(v Value) int64 {
	const hdr = 16 // string header / per-element bookkeeping
	switch x := v.(type) {
	case *Frame:
		var b int64
		for i := range x.Cols {
			c := &x.Cols[i]
			b += 8 * int64(len(c.F))
			for _, s := range c.S {
				b += hdr + int64(len(s))
			}
		}
		b += 8 * int64(len(x.UnitIdx))
		b += 8 * int64(len(x.Labels))
		for _, a := range x.Attacks {
			b += hdr + int64(len(a))
		}
		return b
	case *Grouped:
		b := valueBytes(x.F)
		for _, g := range x.Groups {
			b += 8 * int64(len(g))
		}
		b += 8 * int64(len(x.GroupOf))
		for _, k := range x.Keys {
			b += hdr + int64(len(k))
		}
		return b
	case *Flows:
		var b int64
		for _, f := range x.Flows {
			b += int64(unsafe.Sizeof(*f)) + statBytes(f.Stats)
		}
		return b
	default:
		return 0
	}
}

// statBytes is what a flow's member stats cost beyond the flow itself,
// wherever they live: the first array a slab carved for them, which the
// slab keeps once they outgrow it, plus the slice they moved to then.
func statBytes(st []flow.PacketStat) int64 {
	n := int64(cap(st))
	if n > flow.InlineStats {
		n += flow.InlineStats
	}
	return n * int64(unsafe.Sizeof(flow.PacketStat{}))
}

// lineageKeys names, by slot, every value a pass over root can share
// through the cache by its lineage: the op that made it, the op's
// canonical params, and its inputs' keys, down to the root's identity for
// the pass's packet input. Only outputs of cacheable ops whose every input
// has a key get one; a value downstream of anything fitted, or of a
// model, has the empty key, which the cache never serves. The
// root's key is its address, valid only while root is alive: every entry
// holds its root (see getOrCompute), so no other dataset can take that
// address while an entry derived from it is cached. Keys are the same
// whichever engine computes them, so two pipelines reusing the same
// upstream prefix hit the same entries.
func lineageKeys(p *Pipeline, pl *StreamPlan, root *dataset.Labeled) []string {
	keys := make([]string, len(p.Ops)+1)
	keys[packetSlot(p.Ops)] = fmt.Sprintf("ds:%p", root)
	for i, op := range p.Ops {
		if !pl.defs[i].traits.cacheable {
			continue
		}
		in := make([]string, len(pl.in[i]))
		for j, s := range pl.in[i] {
			in[j] = keys[s]
		}
		// func{params}(in1,in2) is prefix-free, since a JSON object ends
		// where its braces balance: no two lineages share a key.
		if ps, err := json.Marshal(op.Params); err == nil && !slices.Contains(in, "") {
			keys[i] = op.Func + string(ps) + "(" + strings.Join(in, ",") + ")"
		}
	}
	return keys
}
