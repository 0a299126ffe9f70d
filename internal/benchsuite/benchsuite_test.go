package benchsuite

import (
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lumen/internal/algorithms"
	"lumen/internal/core"
	"lumen/internal/dataset"
	"lumen/internal/mlkit"
)

// fastSuite builds a small suite for unit tests: cheap algorithms, a few
// datasets, reduced scale.
func fastSuite(t *testing.T, algs, dss []string) *Suite {
	t.Helper()
	s, err := New(Config{Scale: 0.3, Seed: 1, AlgIDs: algs, DatasetIDs: dss})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidatesScope(t *testing.T) {
	if _, err := New(Config{AlgIDs: []string{"A99"}}); err == nil {
		t.Error("unknown algorithm scope should fail")
	}
	if _, err := New(Config{DatasetIDs: []string{"ZZ"}}); err == nil {
		t.Error("unknown dataset scope should fail")
	}
}

func TestInterleaveSplitCoversAttacks(t *testing.T) {
	spec, _ := dataset.Get("F1")
	ds := spec.Generate(0.3)
	tr, te := InterleaveSplit(ds)
	if len(tr.Packets)+len(te.Packets) != len(ds.Packets) {
		t.Fatal("split lost packets")
	}
	if tr.MaliciousFraction() == 0 || te.MaliciousFraction() == 0 {
		t.Fatal("both halves must contain attacks")
	}
	if len(tr.AttackSet()) != len(te.AttackSet()) {
		t.Errorf("attack coverage differs: %v vs %v", tr.AttackSet(), te.AttackSet())
	}
}

func TestCanRunRules(t *testing.T) {
	s := fastSuite(t, nil, nil)
	get := func(id string) *split { return s.splits[id] }
	alg := func(id string) (a interface{ Granularity() dataset.Granularity }) {
		for _, x := range s.algs {
			if x.ID == id {
				return x
			}
		}
		t.Fatalf("no alg %s", id)
		return nil
	}
	_ = alg
	find := func(id string) int {
		for i, x := range s.algs {
			if x.ID == id {
				return i
			}
		}
		t.Fatalf("no alg %s", id)
		return -1
	}
	a14 := s.algs[find("A14")] // connection
	a05 := s.algs[find("A05")] // packet, needs IP
	a06 := s.algs[find("A06")] // packet, no IP needed
	if CanRun(a14, get("P0"), get("P0")) {
		t.Error("connection algorithm must not run on packet-granularity labels")
	}
	if !CanRun(a14, get("F4"), get("F7")) {
		t.Error("connection algorithm on connection datasets should run")
	}
	if !CanRun(a05, get("F1"), get("P0")) {
		t.Error("packet algorithm can propagate connection labels down")
	}
	if CanRun(a05, get("P2"), get("P2")) {
		t.Error("IP-based algorithm must not run on 802.11 AWID3")
	}
	if !CanRun(a06, get("P2"), get("P2")) {
		t.Error("Kitsune is the one algorithm that runs on AWID3 (Obs. 4)")
	}
}

func TestRunSameDatasetFillsStore(t *testing.T) {
	s := fastSuite(t, []string{"A13", "A14", "A15"}, []string{"F1", "F6"})
	s.RunSameDataset()
	if len(s.Store.Results) != 6 {
		t.Fatalf("got %d results, want 3 algs x 2 datasets = 6", len(s.Store.Results))
	}
	for _, r := range s.Store.Results {
		if !r.OK() {
			t.Errorf("%s on %s failed: %s", r.Alg, r.TrainDS, r.Err)
		}
		if !r.Same() {
			t.Errorf("same-dataset run has train %s != test %s", r.TrainDS, r.TestDS)
		}
		if r.NUnits == 0 {
			t.Errorf("%s on %s evaluated zero units", r.Alg, r.TrainDS)
		}
		if len(r.PerAttack) == 0 {
			t.Errorf("%s on %s has no per-attack scores", r.Alg, r.TrainDS)
		}
	}
}

func TestRunCrossDatasetPairs(t *testing.T) {
	s := fastSuite(t, []string{"A14"}, []string{"F1", "F4", "F6"})
	s.RunCrossDataset()
	if len(s.Store.Results) != 6 { // 3x2 ordered pairs
		t.Fatalf("got %d results, want 6 ordered pairs", len(s.Store.Results))
	}
	for _, r := range s.Store.Results {
		if r.Same() {
			t.Error("cross run must not pair a dataset with itself")
		}
	}
}

func TestFigureBuilders(t *testing.T) {
	s := fastSuite(t, []string{"A13", "A14", "A15"}, []string{"F1", "F4", "F6"})
	s.RunAll()

	h5 := s.Fig5()
	nonNaN := 0
	for i := range h5.RowNames {
		for j := range h5.ColNames {
			if !math.IsNaN(h5.Cells[i][j]) {
				nonNaN++
			}
		}
	}
	if nonNaN == 0 {
		t.Error("Fig5 heatmap has no data cells")
	}

	rows7 := s.Fig7()
	if len(rows7) != 3 {
		t.Fatalf("Fig7 rows = %d, want 3", len(rows7))
	}
	for _, r := range rows7 {
		if len(r.PrecDiff.Values) == 0 {
			t.Errorf("Fig7 %s: empty distribution", r.Alg)
		}
		for _, v := range r.PrecDiff.Values {
			if v < -1e-9 {
				t.Errorf("Fig7 %s: negative distance from best (%v)", r.Alg, v)
			}
		}
	}

	prec8, rec8 := s.Fig8()
	prec9, rec9 := s.Fig9()
	if len(prec8) != 3 || len(rec8) != 3 || len(prec9) != 3 || len(rec9) != 3 {
		t.Fatal("Fig8/Fig9 distribution counts wrong")
	}
	for i := range prec8 {
		if len(prec8[i].Values) != 3 { // 3 same-dataset runs per alg
			t.Errorf("Fig8 %s has %d values, want 3", prec8[i].Name, len(prec8[i].Values))
		}
		if len(prec9[i].Values) != 6 { // 6 cross pairs per alg
			t.Errorf("Fig9 %s has %d values, want 6", prec9[i].Name, len(prec9[i].Values))
		}
	}

	hp, hr := s.Fig10()
	if math.IsNaN(hp.Get("F4", "F1")) { // test F4, train F1 must exist
		t.Error("Fig10 missing cross cell")
	}
	if math.IsNaN(hr.Get("F1", "F1")) {
		t.Error("Fig10 missing diagonal cell")
	}
}

func TestObs2Counts(t *testing.T) {
	s := fastSuite(t, []string{"A13", "A14"}, []string{"F1", "F4"})
	s.RunAll()
	sp, sr, cp, cr := s.Obs2(0.2)
	for _, v := range []int{sp, sr, cp, cr} {
		if v < 0 || v > 2 {
			t.Fatalf("Obs2 counts out of range: %d %d %d %d", sp, sr, cp, cr)
		}
	}
}

func TestFig6MergedAndModified(t *testing.T) {
	s := fastSuite(t, []string{"A13", "A14"}, []string{"F1", "F4", "F6"})
	s.RunSameDataset()
	res, err := s.Fig6(0.3)
	if err != nil {
		t.Fatal(err)
	}
	// Rows: merged A08, A09, A13, A14 + AM01-AM03.
	if len(res.Heatmap.RowNames) != 7 {
		t.Fatalf("Fig6 rows = %v, want 7", res.Heatmap.RowNames)
	}
	if len(res.MeanPrecision) != 7 {
		t.Fatalf("Fig6 means = %d, want 7", len(res.MeanPrecision))
	}
	for id, m := range res.MeanPrecision {
		if m < 0 || m > 1 {
			t.Errorf("%s merged precision %v out of range", id, m)
		}
	}
	imp := s.Obs5(res)
	if len(imp) == 0 {
		t.Error("Obs5 produced no improvements (A13/A14 have same-dataset baselines)")
	}
}

func TestValidationRuns(t *testing.T) {
	s := fastSuite(t, []string{"A07", "A10", "A14"}, []string{"F0", "F1", "F2", "F4", "F5", "F6"})
	rows, err := s.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("validation rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Measured < 0 || r.Measured > 1 {
			t.Errorf("%s: measured %v out of range", r.Case, r.Measured)
		}
	}
	if out := ValidationTable(rows); len(out) == 0 {
		t.Error("empty validation table")
	}
}

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	s := fastSuite(t, []string{"A14"}, []string{"F1"})
	s.RunSameDataset()
	path := filepath.Join(t.TempDir(), "results.json")
	if err := s.Store.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Results) != len(s.Store.Results) {
		t.Fatalf("loaded %d results, want %d", len(loaded.Results), len(s.Store.Results))
	}
	if loaded.Results[0].Precision != s.Store.Results[0].Precision {
		t.Error("precision did not survive round trip")
	}
}

func TestStoreQueries(t *testing.T) {
	st := &Store{Results: []RunResult{
		{Alg: "A1", TrainDS: "F0", TestDS: "F0", Precision: 0.9, Recall: 0.8},
		{Alg: "A1", TrainDS: "F0", TestDS: "F1", Precision: 0.4, Recall: 0.3},
		{Alg: "A2", TrainDS: "F0", TestDS: "F1", Precision: 0.7, Recall: 0.6},
		{Alg: "A3", TrainDS: "F0", TestDS: "F1", Err: "boom"},
	}}
	if got := len(st.Filter(func(r RunResult) bool { return r.Same() })); got != 1 {
		t.Errorf("same filter = %d, want 1", got)
	}
	if algs := st.Algs(); len(algs) != 3 || algs[0] != "A1" {
		t.Errorf("Algs() = %v", algs)
	}
	by := st.ByAlg()
	if len(by["A3"]) != 0 {
		t.Error("failed runs must be excluded from ByAlg")
	}
	best := st.BestPerPair()
	if b := best[[2]string{"F0", "F1"}]; b[0] != 0.7 || b[1] != 0.6 {
		t.Errorf("best for F0->F1 = %v, want {0.7 0.6}", b)
	}
}

func TestLiteratureAndFig1a(t *testing.T) {
	if len(Literature()) != 11 {
		t.Fatalf("literature entries = %d, want 11 (Table 1)", len(Literature()))
	}
	if Table1() == "" {
		t.Error("empty Table 1")
	}
	tbl := Fig1a()
	if len(tbl.Rows) != 11 {
		t.Fatalf("Fig1a rows = %d, want 11", len(tbl.Rows))
	}
	// Paper: "for half of the algorithms ... no possible comparison".
	zf := Fig1aZeroFraction()
	if zf < 0.4 || zf > 0.6 {
		t.Errorf("zero-comparison fraction = %.2f, want ~0.5", zf)
	}
}

func TestSynthesisEvalScoresPipelines(t *testing.T) {
	s := fastSuite(t, []string{"A14"}, []string{"F1", "F6"})
	eval := s.SynthesisEval()
	a14 := s.algs[0]
	score := eval(a14.Pipeline)
	if score <= 0 || score > 1 {
		t.Fatalf("eval score = %v, want in (0,1]", score)
	}
}

func TestNewNamesUnknownIDsAmongValid(t *testing.T) {
	// A typo'd ID among valid ones must error, not silently shrink the suite.
	_, err := New(Config{AlgIDs: []string{"A14", "A99"}, DatasetIDs: []string{"F1"}})
	if err == nil || !strings.Contains(err.Error(), "A99") {
		t.Errorf("error should name the unknown algorithm ID: %v", err)
	}
	_, err = New(Config{DatasetIDs: []string{"F1", "f4"}})
	if err == nil || !strings.Contains(err.Error(), "f4") {
		t.Errorf("error should name the unknown dataset ID: %v", err)
	}
}

func TestRunAllRecordsMetaAndWall(t *testing.T) {
	s := fastSuite(t, []string{"A14", "A15"}, []string{"F1", "F4"})
	s.cfg.Workers = 2
	s.RunSameDataset()
	m := s.Store.Meta
	if m.Runs != len(s.Store.Results) || m.Runs == 0 {
		t.Fatalf("meta.Runs=%d, results=%d", m.Runs, len(s.Store.Results))
	}
	if m.Workers != 2 {
		t.Errorf("meta.Workers=%d, want 2", m.Workers)
	}
	if m.Wall <= 0 || m.Busy <= 0 {
		t.Errorf("wall=%v busy=%v, want positive", m.Wall, m.Busy)
	}
	if m.Utilization <= 0 || m.Utilization > 1.5 {
		t.Errorf("utilization=%v out of range", m.Utilization)
	}
	for _, r := range s.Store.Results {
		if r.OK() && r.Wall <= 0 {
			t.Errorf("run %s/%s has no wall time", r.Alg, r.TrainDS)
		}
	}
}

func TestSuiteSingleflightOneComputationPerKey(t *testing.T) {
	// Many algorithms share the flow_assemble/flow_features prefix on the
	// same dataset; with a multi-worker pool the first wave used to
	// recompute the same key once per worker. Singleflight must keep it
	// to one computation per distinct key: every miss leaves an entry.
	s, err := New(Config{
		Scale: 0.3, Seed: 1, Workers: 4,
		AlgIDs:     []string{"A07", "A08", "A09", "A13", "A14", "A15"},
		DatasetIDs: []string{"F1", "F4"},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.RunSameDataset()
	st := s.CacheStats()
	if st.Misses == 0 {
		t.Fatal("no cache activity")
	}
	if st.Misses != st.Entries {
		t.Errorf("misses=%d entries=%d: some key was computed more than once",
			st.Misses, st.Entries)
	}
	if st.Hits == 0 {
		t.Error("no cache hits across algorithms sharing a prefix")
	}
}

func TestOpProfilesAggregate(t *testing.T) {
	s, err := New(Config{
		Scale: 0.3, Seed: 1, Profile: true,
		AlgIDs:     []string{"A14"},
		DatasetIDs: []string{"F1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.RunSameDataset()
	profs := s.OpProfiles()
	if len(profs) == 0 {
		t.Fatal("no per-op profiles aggregated")
	}
	var sawCached, sawAllocs bool
	for _, p := range profs {
		if p.Count <= 0 {
			t.Errorf("op %s count=%d", p.Func, p.Count)
		}
		if p.Cached > 0 {
			sawCached = true
		}
		if p.Allocs > 0 {
			sawAllocs = true
		}
	}
	_ = sawCached // a single run may or may not hit the cache
	if !sawAllocs {
		t.Error("profiling on but no op recorded allocations")
	}
	// Sorted by total wall, descending.
	for i := 1; i < len(profs); i++ {
		if profs[i].Wall > profs[i-1].Wall {
			t.Errorf("profiles not sorted by wall time at %d", i)
		}
	}
}

// TestSharedCacheServesFlowOps: the suite's whole-trace passes share flow
// assembly and flow features across engines through the cache, keyed by
// lineage, and compute every key once.
func TestSharedCacheServesFlowOps(t *testing.T) {
	s, err := New(Config{
		Scale: 0.05, Seed: 7, Workers: 1,
		AlgIDs:     []string{"A07", "A08", "A09", "A13", "A14", "A15"},
		DatasetIDs: []string{"F1", "F4", "F6", "F9"},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.RunAll()
	cached := map[string]int{}
	for _, p := range s.OpProfiles() {
		cached[p.Func] = p.Cached
	}
	for _, fn := range []string{"flow_assemble", "flow_features"} {
		if cached[fn] == 0 {
			t.Errorf("%s was never served from the cache (profiles: %v)", fn, cached)
		}
	}
	st := s.CacheStats()
	if st.Misses != st.Entries {
		t.Errorf("cache computed %d keys but holds %d: a key was computed twice", st.Misses, st.Entries)
	}
	t.Logf("cache: %+v, cached ops: %v", st, cached)
}

// TestSharedCacheKeepsEveryStat: flows the shared cache serves keep every
// member stat, whatever the pipeline that first computed them reads. A14,
// whose own sink would keep none, runs first over a dataset; A13, which
// reads every stat, and A12, which reads the first hundred, then take its
// flows from the cache, and all three give the result of an engine
// without a cache bit for bit.
func TestSharedCacheKeepsEveryStat(t *testing.T) {
	spec, _ := dataset.Get("F2")
	train, test := InterleaveSplit(spec.Generate(2))
	cache := core.NewCache()
	for _, id := range []string{"A14", "A13", "A12"} {
		alg, _ := algorithms.Get(id)
		var res [2]*core.EvalResult
		for k, c := range []*core.Cache{nil, cache} {
			eng := core.NewEngine(alg.Pipeline)
			eng.Seed = 1
			eng.SetCache(c)
			if err := eng.Train(train); err != nil {
				t.Fatal(err)
			}
			var err error
			if res[k], err = eng.Test(test); err != nil {
				t.Fatal(err)
			}
			if c != nil && id != "A14" && !eng.Profile[0].Cached {
				t.Errorf("%s: flow_assemble was not served from the cache", id)
			}
		}
		if !reflect.DeepEqual(res[0], res[1]) {
			t.Errorf("%s: the result through the shared cache differs from the uncached one", id)
		}
	}
}

// TestRegisteredPipelinesStreamMatchWholeTrace: two registered flow
// algorithms, trained and tested in 64-packet chunks at depth 0 and 2,
// give the EvalResult of whole-trace Train/Test. core's equivalence
// sweeps pin the engine on its own pipelines; this pins it on the
// registered ones the suite runs.
func TestRegisteredPipelinesStreamMatchWholeTrace(t *testing.T) {
	spec, _ := dataset.Get("F1")
	train, test := InterleaveSplit(spec.Generate(0.3))
	for _, id := range []string{"A13", "A14"} {
		alg, _ := algorithms.Get(id)
		whole := core.NewEngine(alg.Pipeline)
		whole.Seed = 1
		if err := whole.Train(train); err != nil {
			t.Fatal(err)
		}
		want, err := whole.Test(test)
		if err != nil {
			t.Fatal(err)
		}
		for _, depth := range []int{0, 2} {
			cfg := core.StreamConfig{ChunkRows: 64, PipelineDepth: depth}
			eng := core.NewEngine(alg.Pipeline)
			eng.Seed = 1
			if err := eng.TrainStream(train, cfg); err != nil {
				t.Fatal(err)
			}
			got, err := eng.TestStream(test, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s at chunk 64, depth %d: result differs from whole-trace Test", id, depth)
			}
		}
	}
}

// TestA00CrossDatasetAUCRepeats: A00, the one registered pipeline that
// reads the entropy aggregate, scores P0→F1 to one AUC on every engine.
// Its entropy once summed in map order, which moved this cell's AUC from
// run to run.
func TestA00CrossDatasetAUCRepeats(t *testing.T) {
	p0, _ := dataset.Get("P0")
	f1, _ := dataset.Get("F1")
	train, _ := InterleaveSplit(p0.Generate(0.25))
	_, test := InterleaveSplit(f1.Generate(0.25))
	alg, _ := algorithms.Get("A00")
	var first float64
	for i := 0; i < 8; i++ {
		eng := core.NewEngine(alg.Pipeline)
		eng.Seed = 7 + int64(hash("A00P0F1"))
		if err := eng.Train(train); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Test(test)
		if err != nil {
			t.Fatal(err)
		}
		auc := mlkit.AUC(res.Truth, res.Scores)
		if i == 0 {
			first = auc
		} else if math.Float64bits(auc) != math.Float64bits(first) {
			t.Fatalf("engine %d: AUC %v, engine 0: %v", i, auc, first)
		}
	}
}
