package core

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"lumen/internal/dataset"
	"lumen/internal/flow"
	"lumen/internal/mlkit"
)

func TestCacheHitsAcrossEngines(t *testing.T) {
	ds := smallDS(t, "F1")
	p := &Pipeline{
		Name:        "cached",
		Granularity: "connection",
		Ops: []OpSpec{
			{Func: "flow_assemble", Input: []string{InputName}, Output: "fl", Params: map[string]any{"granularity": "connection"}},
			{Func: "flow_features", Input: []string{"fl"}, Output: "X"},
			{Func: "model", Output: "m", Params: map[string]any{"model_type": "decision_tree"}},
			{Func: "train", Input: []string{"m", "X"}, Output: "t"},
		},
	}
	cache := NewCache()

	// First engine: all misses.
	e1 := NewEngine(p)
	e1.SetCache(cache)
	if err := e1.Train(ds); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Hits != 0 || st.Misses == 0 {
		t.Fatalf("first run: hits=%d misses=%d, want 0 hits", st.Hits, st.Misses)
	}
	if st.Entries == 0 || st.Bytes <= 0 {
		t.Fatalf("first run: entries=%d bytes=%d, want nonzero size accounting", st.Entries, st.Bytes)
	}

	// Second engine, same dataset: flow ops must be served from cache.
	e2 := NewEngine(p)
	e2.SetCache(cache)
	if err := e2.Train(ds); err != nil {
		t.Fatal(err)
	}
	if h2 := cache.Stats().Hits; h2 < 2 { // flow_assemble + flow_features
		t.Fatalf("second run hits = %d, want >= 2", h2)
	}
	cachedOps := 0
	for _, st := range e2.Profile {
		if st.Cached {
			cachedOps++
		}
	}
	if cachedOps != 2 {
		t.Errorf("profile shows %d cached ops, want 2", cachedOps)
	}

	// Results identical with and without cache.
	e3 := NewEngine(p) // no cache
	e3.Seed = e2.Seed
	if err := e3.Train(ds); err != nil {
		t.Fatal(err)
	}
	r2, err := e2.Test(ds)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := e3.Test(ds)
	if err != nil {
		t.Fatal(err)
	}
	if mlkit.Precision(r2.Truth, r2.Pred) != mlkit.Precision(r3.Truth, r3.Pred) {
		t.Error("cache changed results")
	}
}

func TestCacheKeySensitivity(t *testing.T) {
	keysOf := func(gran string, ds *dataset.Labeled) map[string]string {
		t.Helper()
		e := NewEngine(flowFeaturePipeline(gran, nil))
		defs, err := e.check()
		if err != nil {
			t.Fatal(err)
		}
		return lineageKeys(e.P, defs, ds)
	}
	ds := smallDS(t, "F1")
	ka, kb := keysOf("connection", ds), keysOf("uniflow", ds)
	if ka["flows"] == "" || ka["X"] == "" {
		t.Fatalf("no key for flow_assemble or flow_features: %v", ka)
	}
	if ka["flows"] == kb["flows"] || ka["X"] == kb["X"] {
		t.Error("different params must produce different keys, downstream too")
	}
	kc := keysOf("connection", smallDS(t, "F4"))
	if ka["flows"] == kc["flows"] || ka["X"] == kc["X"] {
		t.Error("different datasets must produce different keys")
	}
	if again := keysOf("connection", ds); again["X"] != ka["X"] {
		t.Errorf("one lineage, two keys: %q vs %q", again["X"], ka["X"])
	}
	// Models and what is fitted from them have no lineage: never cached.
	if _, ok := ka["m"]; ok {
		t.Error("a model spec must not be cacheable")
	}
	if _, ok := ka["fit"]; ok {
		t.Error("a trained model must not be cacheable")
	}
}

func TestCacheDisabledByDefault(t *testing.T) {
	ds := smallDS(t, "F1")
	p, _ := ParsePipeline([]byte(fig4Template))
	e := NewEngine(p)
	if err := e.Train(ds); err != nil {
		t.Fatal(err)
	}
	for _, st := range e.Profile {
		if st.Cached {
			t.Fatal("no cache attached, nothing may be marked cached")
		}
	}
}

// TestCacheSingleflightDedup proves N concurrent misses on one key run
// the compute function exactly once: one caller computes, the rest block
// and share the published result.
func TestCacheSingleflightDedup(t *testing.T) {
	c := NewCache()
	const n = 8
	var calls int32
	start := make(chan struct{})
	vals := make([]Value, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			v, err, _ := c.getOrCompute("k", nil, func() (Value, error) {
				atomic.AddInt32(&calls, 1)
				time.Sleep(20 * time.Millisecond) // widen the race window
				return NewFrame(3), nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			vals[i] = v
		}(i)
	}
	close(start)
	wg.Wait()
	if calls != 1 {
		t.Fatalf("compute ran %d times for one key, want 1", calls)
	}
	for i := 1; i < n; i++ {
		if vals[i] != vals[0] {
			t.Fatalf("caller %d got a different value pointer", i)
		}
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1 (one computation)", st.Misses)
	}
	if st.Hits+st.DedupWaits != n-1 {
		t.Errorf("hits+dedupWaits = %d, want %d", st.Hits+st.DedupWaits, n-1)
	}
}

// TestCacheSingleflightError proves errors reach every waiter and are
// never cached.
func TestCacheSingleflightError(t *testing.T) {
	c := NewCache()
	wantErr := fmt.Errorf("boom")
	_, err, computed := c.getOrCompute("k", nil, func() (Value, error) { return nil, wantErr })
	if err != wantErr || !computed {
		t.Fatalf("got err=%v computed=%v", err, computed)
	}
	if c.Stats().Entries != 0 {
		t.Fatal("error result was cached")
	}
	// The key must be computable again after a failure.
	v, err, computed := c.getOrCompute("k", nil, func() (Value, error) { return NewFrame(1), nil })
	if err != nil || !computed || v == nil {
		t.Fatalf("retry after error: v=%v err=%v computed=%v", v, err, computed)
	}
}

// snapshotFrames deep-copies the numeric data of every cached Frame so a
// later comparison can detect in-place mutation by downstream ops.
func snapshotFrames(c *Cache) map[string][][]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := map[string][][]float64{}
	for key, e := range c.entries {
		fr, ok := e.val.(*Frame)
		if !ok {
			continue
		}
		var cols [][]float64
		for i := range fr.Cols {
			if fr.Cols[i].IsNumeric() {
				cols = append(cols, append([]float64(nil), fr.Cols[i].F...))
			}
		}
		snap[key] = cols
	}
	return snap
}

// TestCacheAliasingGuard runs many engines concurrently against one
// shared cache and asserts the cached *Frame values are bit-identical
// before and after: downstream ops (scaling, training...) must never
// mutate a cached value they alias.
func TestCacheAliasingGuard(t *testing.T) {
	ds := smallDS(t, "F1")
	p := &Pipeline{
		Name:        "aliasing",
		Granularity: "connection",
		Ops: []OpSpec{
			{Func: "flow_assemble", Input: []string{InputName}, Output: "fl", Params: map[string]any{"granularity": "connection"}},
			{Func: "flow_features", Input: []string{"fl"}, Output: "X"},
			{Func: "log_scale", Input: []string{"X"}, Output: "Xl"},
			{Func: "normalize", Input: []string{"Xl"}, Output: "Xs", Params: map[string]any{"kind": "zscore"}},
			{Func: "model", Output: "m", Params: map[string]any{"model_type": "decision_tree"}},
			{Func: "train", Input: []string{"m", "Xs"}, Output: "t"},
		},
	}
	cache := NewCache()
	// Populate the cache once, then snapshot every cached frame.
	e0 := NewEngine(p)
	e0.SetCache(cache)
	if err := e0.Train(ds); err != nil {
		t.Fatal(err)
	}
	before := snapshotFrames(cache)
	if len(before) == 0 {
		t.Fatal("no frames cached; aliasing guard has nothing to check")
	}

	const engines = 8
	var wg sync.WaitGroup
	for i := 0; i < engines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e := NewEngine(p)
			e.SetCache(cache)
			e.Seed = int64(i)
			if err := e.Train(ds); err != nil {
				t.Error(err)
				return
			}
			if _, err := e.Test(ds); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()

	after := snapshotFrames(cache)
	for key, cols := range before {
		got, ok := after[key]
		if !ok {
			t.Errorf("cached frame %q disappeared", key)
			continue
		}
		if !reflect.DeepEqual(cols, got) {
			t.Errorf("cached frame %q was mutated by a downstream op", key)
		}
	}
}

// TestEngineSingleflightAcrossEngines runs N engines with identical
// cacheable prefixes concurrently and asserts every distinct key was
// computed exactly once (misses == entries, and no recompute races).
func TestEngineSingleflightAcrossEngines(t *testing.T) {
	ds := smallDS(t, "F1")
	p := &Pipeline{
		Name:        "sf",
		Granularity: "connection",
		Ops: []OpSpec{
			{Func: "flow_assemble", Input: []string{InputName}, Output: "fl", Params: map[string]any{"granularity": "connection"}},
			{Func: "flow_features", Input: []string{"fl"}, Output: "X"},
			{Func: "model", Output: "m", Params: map[string]any{"model_type": "decision_tree"}},
			{Func: "train", Input: []string{"m", "X"}, Output: "t"},
		},
	}
	cache := NewCache()
	const engines = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < engines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			e := NewEngine(p)
			e.SetCache(cache)
			e.Seed = int64(i)
			if err := e.Train(ds); err != nil {
				t.Error(err)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	st := cache.Stats()
	if st.Misses != st.Entries {
		t.Errorf("misses=%d entries=%d: some key was computed more than once", st.Misses, st.Entries)
	}
	// All first-wave engines race the same two keys: every lookup that
	// was not the one computation must be a hit or a dedup-wait.
	if st.Hits+st.DedupWaits != engines*2-st.Misses {
		t.Errorf("hits=%d dedupWaits=%d misses=%d for %d lookups",
			st.Hits, st.DedupWaits, st.Misses, engines*2)
	}
}

// TestFlowsValueBytes: the cache prices a flow at its struct's size plus
// its stats wherever they live, 16 B a stat of capacity: the first array
// a slab carved for them and, once they outgrew it, the slice they moved
// to as well.
func TestFlowsValueBytes(t *testing.T) {
	if n := unsafe.Sizeof(flow.PacketStat{}); n != 16 {
		t.Fatalf("a PacketStat is %d B, want 16", n)
	}
	var slab flow.StatSlab
	bare, short, long := &flow.Flow{}, &flow.Flow{}, &flow.Flow{}
	for k := 0; k < flow.InlineStats; k++ {
		short.AddStat(flow.PacketStat{}, &slab)
	}
	for k := 0; k < 3*flow.InlineStats; k++ {
		long.AddStat(flow.PacketStat{}, &slab)
	}
	if cap(long.Stats) <= flow.InlineStats || cap(short.Stats) != flow.InlineStats {
		t.Fatalf("fixture: stats capacities %d and %d", cap(short.Stats), cap(long.Stats))
	}
	want := int64(3*unsafe.Sizeof(flow.Flow{}) + 16*uintptr(2*flow.InlineStats+cap(long.Stats)))
	for _, gran := range []dataset.Granularity{dataset.UniflowG, dataset.ConnectionG} {
		fl := &Flows{Granularity: gran, Flows: []*flow.Flow{bare, short, long}}
		if got := valueBytes(fl); got != want {
			t.Errorf("%s flows priced at %d B, want %d", gran, got, want)
		}
	}
}
