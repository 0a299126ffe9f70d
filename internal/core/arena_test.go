package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"lumen/internal/dataset"
)

// TestChunkArenaReuse: a reset arena hands its memory out again, zeroed
// and capped like make's, and a chunk that outgrows it is served on the
// spot and sizes it for the next.
func TestChunkArenaReuse(t *testing.T) {
	var a chunkArena
	x := a.floats(4)
	for i := range x {
		x[i] = 1
	}
	y := a.floats(8) // past the first slab: served by a fresh one
	if len(y) != 8 || cap(x) != 4 || cap(y) != 8 {
		t.Fatalf("lengths/caps %d/%d, %d/%d", len(x), cap(x), len(y), cap(y))
	}
	a.reset()
	if len(a.f.buf) < 12 {
		t.Fatalf("reset sized the slab to %d, the chunk asked for 12", len(a.f.buf))
	}
	again := a.floats(4)
	if &again[0] != &a.f.buf[0] {
		t.Fatal("a reset arena did not reuse its slab")
	}
	for i, v := range again {
		if v != 0 {
			t.Fatalf("reused buffer not zeroed at %d: %v", i, v)
		}
	}
	if z := a.ints(0); z == nil || len(z) != 0 {
		t.Fatalf("an empty request gave %#v, want an empty non-nil slice like make's", z)
	}
	var none *chunkArena
	if len(none.floats(3)) != 3 || len(none.ints(2)) != 2 || len(none.rows(1)) != 1 {
		t.Fatal("a nil arena must serve requests with make")
	}
}

// lightPipeline is the benchmark's light packet pipeline: nine header
// fields, iat among them, so field_extract runs in the sink with the
// train op, and a shallow tree.
func lightPipeline() *Pipeline {
	fields := []any{"len", "payload_len", "ttl", "proto", "src_port", "dst_port", "tcp_flags", "tcp_window", "iat"}
	return &Pipeline{
		Name:        "stream-light",
		Granularity: "packet",
		Ops: []OpSpec{
			{Func: "field_extract", Input: []string{InputName}, Output: "X", Params: map[string]any{"fields": fields}},
			{Func: "model", Output: "m", Params: map[string]any{"model_type": "decision_tree", "max_depth": 6}},
			{Func: "train", Input: []string{"m", "X"}, Output: "fit"},
		},
	}
}

// hookedLightPasses trains the light pipeline on P0 and runs hooked test
// passes at depth over 26 laps of the trace (about 20 000 packets), all
// from one source whose pool carries over. each, when set, runs every
// pass in place of RunStream.
func hookedLightPasses(t *testing.T, depth, passes int, each func(*Engine, dataset.Source, StreamConfig)) (packets int) {
	t.Helper()
	spec, _ := dataset.Get("P0")
	ds := spec.Generate(0.3)
	const laps = 26
	eng := NewEngine(lightPipeline())
	eng.Seed = 7
	if err := eng.Train(ds); err != nil {
		t.Fatal(err)
	}
	rows := 0
	cfg := StreamConfig{ChunkRows: 512, PipelineDepth: depth, Hooks: &StreamHooks{AfterChunk: func(up ChunkUpdate) error {
		for _, res := range up.Results {
			rows += len(res.Pred)
		}
		return nil
	}}}
	ss := dataset.NewSliceSource(ds)
	for range passes {
		ss.Reset()
		src := &loopSource{ss, laps}
		if each != nil {
			each(eng, src, cfg)
		} else if _, err := eng.RunStream(src, ModeTest, cfg); err != nil {
			t.Fatal(err)
		}
	}
	packets = laps * len(ds.Packets)
	if rows != passes*packets {
		t.Fatalf("the hook was handed %d rows over %d passes of %d packets", rows, passes, packets)
	}
	return packets
}

// TestHookedPassRecyclesScratch: a warm hooked pass draws its frame
// columns, feature matrix and unit index from a recycled arena, so what
// it allocates per packet is the verdicts the model returns and a few
// per-chunk objects, not the chunk's scratch (~320 B a packet when every
// chunk allocated its own). The collector stays off from the first warm
// pass, so no cycle empties the source's view pool, and ReadMemStats
// settles the processors' allocation counts without one.
func TestHookedPassRecyclesScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector; allocation thresholds do not hold")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const bound = 80 // B per packet; 57 measured at both depths
	for _, depth := range []int{0, 4} {
		var m0, m1 runtime.MemStats
		pass := 0
		n := hookedLightPasses(t, depth, 4, func(eng *Engine, src dataset.Source, cfg StreamConfig) {
			if pass++; pass == 4 { // three warm passes fill the pools
				runtime.ReadMemStats(&m0)
				defer runtime.ReadMemStats(&m1)
			}
			if _, err := eng.RunStream(src, ModeTest, cfg); err != nil {
				t.Fatal(err)
			}
		})
		allocated := m1.TotalAlloc - m0.TotalAlloc
		perPkt := float64(allocated) / float64(n)
		t.Logf("depth %d: %d B over %d packets = %.1f B/packet", depth, allocated, n, perPkt)
		if perPkt > bound {
			t.Errorf("depth %d: a warm hooked pass allocates %.1f B per packet, bound %d: its chunk scratch is not recycled", depth, perPkt, bound)
		}
	}
}

// TestRecyclingPassUsesOneArena: an arena is taken at a chunk's first
// buffer request, never when its job is built, and returns to the free
// list once the chunk's hook has returned. A pass whose allocating ops
// all run in the sink (field_extract reads iat) therefore cycles exactly
// one arena however far the source and ops stages run ahead, and what it
// allocates does not depend on scheduling. (Whole-process object counts
// of identical passes still differ by a few: goroutine records, sudogs
// and tiny-allocator blocks are the runtime's to allocate.)
func TestRecyclingPassUsesOneArena(t *testing.T) {
	for _, depth := range []int{0, 2, 4} {
		var arenas []int
		hookedLightPasses(t, depth, 10, func(eng *Engine, src dataset.Source, cfg StreamConfig) {
			r, err := newStreamExec(eng, src, ModeTest, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.run(src, cfg); err != nil {
				t.Fatal(err)
			}
			arenas = append(arenas, len(r.arenas.free))
		})
		for _, n := range arenas {
			if n != 1 {
				t.Fatalf("depth %d: passes cycled %v arenas, want 1 each", depth, arenas)
			}
		}
	}
}

// TestOnlyHookedPassesRecycle: recycling is decided once per pass from
// what the pass observably retains. A hooked pass of a fully streamed
// plan recycles, with its scratch taken in the sink (field_extract reads
// iat, kitsune_features is ordered) or on the ops goroutine (nprint), and
// its rows, copied in the callback, are the unhooked result bit for bit
// at depths 0, 2 and 4. An unhooked pass, an Online one and one whose
// plan accumulates frames for the flush (time_slice) do not recycle, and
// the rows their hook was handed stay valid after the callback.
func TestOnlyHookedPassesRecycle(t *testing.T) {
	cases := []struct {
		name, ds       string
		p              *Pipeline
		online, hooked bool
		recycles       bool
	}{
		{"field_extract in the sink", "P0", lightPipeline(), false, true, true},
		{"kitsune_features in the sink", "P1", kitsunePipeline(), false, true, true},
		{"dot11_features in the sink", "P2", dot11Pipeline(), false, true, true},
		{"nprint in the ops stage", "P0", nprintPipeline(), false, true, true},
		{"unhooked", "P0", lightPipeline(), false, false, false},
		{"online prequential", "P0", onlinePipeline("linear_svm"), true, true, false},
		{"accumulating (time_slice)", "P0", packetAggPipeline(), false, true, false},
	}
	for _, tc := range cases {
		spec, _ := dataset.Get(tc.ds)
		ds := spec.Generate(0.05)
		for _, shape := range streamExecShapes {
			cfg := shape
			cfg.ChunkRows, cfg.Online = 64, tc.online
			label := fmt.Sprintf("%s, depth %d", tc.name, cfg.PipelineDepth)
			var handed []*EvalResult
			hooked := cfg
			hooked.Hooks = &StreamHooks{AfterChunk: func(up ChunkUpdate) error {
				for _, res := range up.Results {
					if tc.recycles {
						res = cloneResult(res)
					}
					handed = append(handed, res)
				}
				return nil
			}}
			if !tc.hooked {
				hooked.Hooks = nil
			}
			r, err := newStreamExec(NewEngine(tc.p), dataset.NewSliceSource(ds), ModeTest, hooked, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := r.arenas != nil; got != tc.recycles {
				t.Fatalf("%s: recycles = %v, want %v", label, got, tc.recycles)
			}
			if !tc.hooked {
				continue
			}
			want := trainedTestStream(t, tc.p, ds, cfg)
			if tail := trainedTestStream(t, tc.p, ds, hooked); tail != nil {
				t.Errorf("%s: hooked pass returned %d rows", label, len(tail.Pred))
			}
			requireEqualResults(t, want, mergeResults(handed), label)
		}
	}
}

// trainedTestStream trains p on ds in batch and returns the TestStream
// result of cfg's pass; a fresh engine per call, since an Online pass
// folds every chunk into its model.
func trainedTestStream(t *testing.T, p *Pipeline, ds *dataset.Labeled, cfg StreamConfig) *EvalResult {
	t.Helper()
	eng := NewEngine(p)
	eng.Seed = 7
	if err := eng.Train(ds); err != nil {
		t.Fatal(err)
	}
	res, err := eng.TestStream(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
