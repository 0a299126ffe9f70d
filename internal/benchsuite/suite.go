// Package benchsuite is Lumen's benchmarking suite: it runs every
// algorithm against every dataset it can faithfully run on — same-dataset
// and cross-dataset — stores the scores in a query-friendly store, and
// regenerates each figure of the paper's evaluation (Figs. 1, 5–10, the
// §5.2 validation and the §5.4 improvement experiments).
package benchsuite

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"lumen/internal/algorithms"
	"lumen/internal/core"
	"lumen/internal/dataset"
	"lumen/internal/mlkit"
	"lumen/internal/netpkt"
	"lumen/internal/obs"
)

// Config scopes a suite run ("the user can scope the comparison on a
// subset of algorithms or datasets").
type Config struct {
	// Scale of the synthesized datasets; 0 means 0.6.
	Scale float64
	// Seed drives model seeds.
	Seed int64
	// AlgIDs restricts the algorithms (nil = all 16).
	AlgIDs []string
	// DatasetIDs restricts the datasets (nil = all 15).
	DatasetIDs []string
	// Workers bounds run parallelism; 0 means GOMAXPROCS.
	Workers int
	// NoCache disables the shared intermediate-result cache (used by the
	// ablation benchmarks; the paper's evaluation pipeline shares
	// intermediates across algorithms).
	NoCache bool
	// CacheEntries bounds the shared cache's entry count with LRU
	// eviction; 0 means unbounded.
	CacheEntries int
	// Profile enables per-op allocation sampling on every engine
	// (core.Engine.Profiling) and per-op profile aggregation across runs.
	// Wall-clock per-op timing is collected regardless.
	Profile bool
	// ChunkRows bounds the packets per chunk of every run's passes
	// (core.Engine.TrainStream/TestStream; 0 = whole trace in one chunk).
	// Results are bit-identical at every chunk size; peak memory on the
	// inference side scales with the chunk size instead of the trace
	// size. Only whole-trace passes share intermediates through the cache.
	ChunkRows int
	// ChunkBytes bounds the wire bytes per chunk (0 = no byte bound);
	// whichever of ChunkRows/ChunkBytes trips first closes the chunk.
	ChunkBytes int
	// PipelineDepth, when > 0, runs each pass as a staged bounded-channel
	// pipeline with this many decoded chunks in flight (see
	// core.StreamConfig).
	PipelineDepth int
	// Tracer, when non-nil, records a span tree for the whole suite: a
	// root "suite" span, one batch span per RunSameDataset/RunCrossDataset
	// call, one run span per (alg, train, test) on the executing worker's
	// track, per-op spans beneath those, and model-fit epoch spans. Call
	// Suite.Finish before exporting so the root span is closed.
	Tracer *obs.Tracer
	// Metrics, when non-nil, receives suite counters and gauges
	// (lumen_runs_total, lumen_run_errors_total, lumen_run_wall_seconds,
	// lumen_suite_workers, lumen_worker_utilization) plus the cache, op
	// and fit metrics of the layers below.
	Metrics *obs.Metrics
}

func (c Config) scale() float64 {
	if c.Scale == 0 {
		return 0.6
	}
	return c.Scale
}

// Suite caches generated datasets and their train/test splits, and
// accumulates results.
type Suite struct {
	cfg    Config
	algs   []algorithms.Algorithm
	splits map[string]*split
	order  []string // dataset IDs in registry order
	cache  *core.Cache
	root   *obs.Span // "suite" span; nil when tracing is off
	Store  *Store

	profMu sync.Mutex
	prof   map[string]*OpProfile
}

// OpProfile aggregates the cost of one operation across every run of the
// suite: how often it executed, how often the shared cache served it,
// and the total wall time and (when profiling is on) allocated bytes.
type OpProfile struct {
	Func   string        `json:"func"`
	Count  int           `json:"count"`
	Cached int           `json:"cached"`
	Wall   time.Duration `json:"wall_ns"`
	Allocs uint64        `json:"allocs_bytes"`
}

// split holds one dataset's train/test halves. The split interleaves
// packets (even → train, odd → test) so both halves cover the same time
// span and attack phases.
type split struct {
	spec  dataset.Spec
	full  *dataset.Labeled
	train *dataset.Labeled
	test  *dataset.Labeled
}

// New builds a suite: datasets are generated eagerly (they are shared
// across runs — the intermediate-reuse optimization the paper describes).
// A scope naming an ID absent from the registry is an error, not a
// silently smaller suite — a typo'd ID among valid ones must not shrink
// the comparison without warning.
func New(cfg Config) (*Suite, error) {
	s := &Suite{cfg: cfg, splits: map[string]*split{}, Store: &Store{}, prof: map[string]*OpProfile{}}
	if !cfg.NoCache {
		s.cache = core.NewCache()
		s.cache.SetLimit(cfg.CacheEntries)
		s.cache.SetMetrics(cfg.Metrics)
	}
	dsIDs := make([]string, 0, len(dataset.Registry()))
	for _, spec := range dataset.Registry() {
		dsIDs = append(dsIDs, spec.ID)
	}
	want, err := idSet(cfg.DatasetIDs, dsIDs, "dataset")
	if err != nil {
		return nil, err
	}
	for _, spec := range dataset.Registry() {
		if len(want) > 0 && !want[spec.ID] {
			continue
		}
		full := spec.Generate(cfg.scale())
		tr, te := InterleaveSplit(full)
		s.splits[spec.ID] = &split{spec: spec, full: full, train: tr, test: te}
		s.order = append(s.order, spec.ID)
	}
	if len(s.order) == 0 {
		return nil, fmt.Errorf("benchsuite: no datasets selected")
	}
	algIDs := make([]string, 0, len(algorithms.All()))
	for _, a := range algorithms.All() {
		algIDs = append(algIDs, a.ID)
	}
	wantAlg, err := idSet(cfg.AlgIDs, algIDs, "algorithm")
	if err != nil {
		return nil, err
	}
	for _, a := range algorithms.All() {
		if len(wantAlg) > 0 && !wantAlg[a.ID] {
			continue
		}
		s.algs = append(s.algs, a)
	}
	if len(s.algs) == 0 {
		return nil, fmt.Errorf("benchsuite: no algorithms selected")
	}
	s.Store.Meta.Manifest = s.manifest()
	if cfg.Tracer != nil {
		s.root = cfg.Tracer.Start("suite", 0)
		s.root.Set("algorithms", len(s.algs))
		s.root.Set("datasets", len(s.order))
		s.root.Set("scale", cfg.scale())
		s.root.Set("seed", cfg.Seed)
	}
	return s, nil
}

// manifest captures the suite's full configuration for the result store,
// so saved results are self-describing ("which flags produced this?").
func (s *Suite) manifest() *Manifest {
	m := &Manifest{
		Scale:         s.cfg.scale(),
		Seed:          s.cfg.Seed,
		Workers:       s.cfg.Workers,
		Cache:         !s.cfg.NoCache,
		CacheEntries:  s.cfg.CacheEntries,
		Profile:       s.cfg.Profile,
		ChunkRows:     s.cfg.ChunkRows,
		ChunkBytes:    s.cfg.ChunkBytes,
		PipelineDepth: s.cfg.PipelineDepth,
		GoVersion:     runtime.Version(),
		MaxProcs:      runtime.GOMAXPROCS(0),
	}
	if m.Workers == 0 {
		m.Workers = runtime.GOMAXPROCS(0)
	}
	for _, a := range s.algs {
		m.Algorithms = append(m.Algorithms, a.ID)
	}
	m.Datasets = append(m.Datasets, s.order...)
	return m
}

// Finish closes the suite's root span. Call it once, after the last Run*
// call and before exporting the tracer; it is a no-op without a tracer.
func (s *Suite) Finish() {
	s.root.End()
}

// idSet builds a membership set from a scope list, rejecting (and
// naming) any ID that is not in the registry's known list.
func idSet(scope, known []string, kind string) (map[string]bool, error) {
	knownSet := make(map[string]bool, len(known))
	for _, id := range known {
		knownSet[id] = true
	}
	set := map[string]bool{}
	var unknown []string
	for _, id := range scope {
		if !knownSet[id] {
			unknown = append(unknown, id)
			continue
		}
		set[id] = true
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("benchsuite: unknown %s IDs %v (known: %v)", kind, unknown, known)
	}
	return set, nil
}

// Algorithms returns the algorithms in scope.
func (s *Suite) Algorithms() []algorithms.Algorithm { return s.algs }

// DatasetIDs returns the datasets in scope, in registry order.
func (s *Suite) DatasetIDs() []string { return append([]string(nil), s.order...) }

// Dataset returns a generated dataset by ID (the full, unsplit trace).
func (s *Suite) Dataset(id string) *dataset.Labeled {
	if sp, ok := s.splits[id]; ok {
		return sp.full
	}
	return nil
}

// InterleaveSplit splits a dataset into train/test halves by alternating
// packets, preserving time order and attack coverage on both sides.
func InterleaveSplit(ds *dataset.Labeled) (train, test *dataset.Labeled) {
	train = &dataset.Labeled{Name: ds.Name + "/train", Granularity: ds.Granularity, Link: ds.Link}
	test = &dataset.Labeled{Name: ds.Name + "/test", Granularity: ds.Granularity, Link: ds.Link}
	for i := range ds.Packets {
		dst := train
		if i%2 == 1 {
			dst = test
		}
		dst.Packets = append(dst.Packets, ds.Packets[i])
		dst.Labels = append(dst.Labels, ds.Labels[i])
		dst.Attacks = append(dst.Attacks, ds.Attacks[i])
	}
	return train, test
}

// CanRun reports whether alg can faithfully run with the given train and
// test datasets: granularity compatibility (paper §2.1) plus the IP-layer
// requirement that rules everything but Kitsune out on 802.11 captures.
func CanRun(alg algorithms.Algorithm, train, test *split) bool {
	g := alg.Granularity()
	if !dataset.CanFaithfullyRun(g, train.spec.Granularity) ||
		!dataset.CanFaithfullyRun(g, test.spec.Granularity) {
		return false
	}
	if !alg.NoIPNeeded && (train.full.Link == netpkt.LinkDot11 || test.full.Link == netpkt.LinkDot11) {
		return false
	}
	return true
}

// runOne trains alg on train packets and evaluates on test packets.
// span, when non-nil, is this run's span: train and test get child spans
// beneath it, and engine op spans nest below those.
func (s *Suite) runOne(alg algorithms.Algorithm, trainID, testID string, trainDS, testDS *dataset.Labeled, span *obs.Span) (rr RunResult) {
	rr = RunResult{Alg: alg.ID, TrainDS: trainID, TestDS: testID, Faithful: true}
	start := time.Now()
	defer func() {
		rr.Wall = time.Since(start)
		if s.cfg.Metrics != nil {
			s.cfg.Metrics.Counter("lumen_runs_total",
				"Completed (alg, train, test) evaluations, including failed ones.").Inc()
			if rr.Err != "" {
				s.cfg.Metrics.Counter("lumen_run_errors_total",
					"Evaluations that ended in a pipeline error.").Inc()
			}
			s.cfg.Metrics.Histogram("lumen_run_wall_seconds",
				"End-to-end train+test wall time per evaluation.", nil).
				Observe(rr.Wall.Seconds())
		}
	}()
	eng := core.NewEngine(alg.Pipeline)
	eng.Profiling = s.cfg.Profile
	eng.Metrics = s.cfg.Metrics
	if s.cache != nil {
		eng.SetCache(s.cache)
	}
	eng.Seed = s.cfg.Seed + int64(hash(alg.ID+trainID+testID))
	streamCfg := core.StreamConfig{
		ChunkRows:     s.cfg.ChunkRows,
		ChunkBytes:    s.cfg.ChunkBytes,
		PipelineDepth: s.cfg.PipelineDepth,
	}
	if span != nil {
		eng.Span = span.Child("train")
	}
	err := eng.TrainStream(trainDS, streamCfg)
	eng.Span.End()
	s.recordProfile(eng.Profile)
	if err != nil {
		rr.Err = err.Error()
		return rr
	}
	if span != nil {
		eng.Span = span.Child("test")
	}
	res, err := eng.TestStream(testDS, streamCfg)
	eng.Span.End()
	s.recordProfile(eng.Profile)
	if err != nil {
		rr.Err = err.Error()
		return rr
	}
	rr.NUnits = len(res.Truth)
	rr.Precision = mlkit.Precision(res.Truth, res.Pred)
	rr.Recall = mlkit.Recall(res.Truth, res.Pred)
	rr.Accuracy = mlkit.Accuracy(res.Truth, res.Pred)
	rr.F1 = mlkit.F1Score(res.Truth, res.Pred)
	if res.Scores != nil {
		rr.AUC = mlkit.AUC(res.Truth, res.Scores)
	} else {
		rr.AUC = 0.5
	}
	rr.PerAttack = perAttackScores(res)
	return rr
}

// perAttackScores computes precision/recall restricted to benign units
// plus each single attack (the Fig. 5 cell definition).
func perAttackScores(res *core.EvalResult) map[string]Score {
	attacks := map[string]bool{}
	for _, a := range res.Attacks {
		if a != "" {
			attacks[a] = true
		}
	}
	out := make(map[string]Score, len(attacks))
	for atk := range attacks {
		var truth, pred []int
		for i := range res.Truth {
			if res.Attacks[i] == "" || res.Attacks[i] == atk {
				truth = append(truth, res.Truth[i])
				pred = append(pred, res.Pred[i])
			}
		}
		out[atk] = Score{
			Precision: mlkit.Precision(truth, pred),
			Recall:    mlkit.Recall(truth, pred),
			N:         len(truth),
		}
	}
	return out
}

// task describes one pending run.
type task struct {
	alg             algorithms.Algorithm
	trainID, testID string
	train, test     *dataset.Labeled
}

// runAll executes tasks on a worker pool (the Ray-style parallel
// evaluation of the paper) and appends results to the store, updating
// the store's batch metadata (wall time, busy time, utilization). name
// labels the batch span ("same-dataset" / "cross-dataset") when tracing.
func (s *Suite) runAll(name string, tasks []task) {
	if len(tasks) == 0 {
		return
	}
	workers := s.cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers < 1 {
		workers = 1
	}
	var batch *obs.Span
	if s.root != nil {
		batch = s.root.Child("batch:" + name)
		batch.Set("tasks", len(tasks))
		batch.Set("workers", workers)
	}
	batchStart := time.Now()
	results := make([]RunResult, len(tasks))
	var wg sync.WaitGroup
	ch := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		// Worker w's run spans render on track w+1 (track 0 is the suite).
		go func(w int) {
			defer wg.Done()
			for i := range ch {
				t := tasks[i]
				var sp *obs.Span
				if batch != nil {
					sp = batch.ChildOn("run:"+t.alg.ID+" "+t.trainID+"→"+t.testID, w+1)
					sp.Set("alg", t.alg.ID)
					sp.Set("train", t.trainID)
					sp.Set("test", t.testID)
					sp.Set("worker", w)
				}
				results[i] = s.runOne(t.alg, t.trainID, t.testID, t.train, t.test, sp)
				if sp != nil {
					if results[i].Err != "" {
						sp.Set("error", results[i].Err)
					}
					sp.End()
				}
			}
		}(w)
	}
	for i := range tasks {
		ch <- i
	}
	close(ch)
	wg.Wait()
	s.Store.Results = append(s.Store.Results, results...)

	meta := &s.Store.Meta
	meta.Runs += len(tasks)
	if workers > meta.Workers {
		meta.Workers = workers
	}
	meta.Wall += time.Since(batchStart)
	for i := range results {
		meta.Busy += results[i].Wall
	}
	if meta.Workers > 0 && meta.Wall > 0 {
		meta.Utilization = float64(meta.Busy) / (float64(meta.Wall) * float64(meta.Workers))
	}
	if batch != nil {
		batch.Set("utilization", meta.Utilization)
		batch.End()
	}
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.Gauge("lumen_suite_workers",
			"Worker-pool size of the most recent batch.").Set(float64(workers))
		s.cfg.Metrics.Gauge("lumen_worker_utilization",
			"Cumulative worker utilization: busy time / (wall time × workers).").
			Set(meta.Utilization)
	}
}

// RunSameDataset evaluates every algorithm on every faithful dataset
// with train and test halves drawn from the same dataset (Figs. 1b, 8).
func (s *Suite) RunSameDataset() {
	var tasks []task
	for _, alg := range s.algs {
		for _, id := range s.order {
			sp := s.splits[id]
			if !CanRun(alg, sp, sp) {
				continue
			}
			tasks = append(tasks, task{alg, id, id, sp.train, sp.test})
		}
	}
	s.runAll("same-dataset", tasks)
}

// RunCrossDataset evaluates every algorithm on every ordered pair of
// distinct faithful datasets: train on A's train half, test on B's test
// half (Figs. 1c, 9, 10).
func (s *Suite) RunCrossDataset() {
	var tasks []task
	for _, alg := range s.algs {
		for _, trID := range s.order {
			for _, teID := range s.order {
				if trID == teID {
					continue
				}
				trSp, teSp := s.splits[trID], s.splits[teID]
				if !CanRun(alg, trSp, teSp) {
					continue
				}
				tasks = append(tasks, task{alg, trID, teID, trSp.train, teSp.test})
			}
		}
	}
	s.runAll("cross-dataset", tasks)
}

// RunAll runs both evaluation modes.
func (s *Suite) RunAll() {
	s.RunSameDataset()
	s.RunCrossDataset()
}

// MergedConnectionDataset builds the Fig. 6 merged corpus: frac of every
// connection-granularity dataset in scope, split into train/test halves.
func (s *Suite) MergedConnectionDataset(frac float64) (train, test *dataset.Labeled) {
	var trains, tests []*dataset.Labeled
	for _, id := range s.order {
		sp := s.splits[id]
		if sp.spec.Granularity != dataset.ConnectionG {
			continue
		}
		trains = append(trains, sp.train)
		tests = append(tests, sp.test)
	}
	return dataset.Merge("merged/train", frac, trains...),
		dataset.Merge("merged/test", frac, tests...)
}

// sortedAttacks lists the distinct attacks across datasets in scope.
func (s *Suite) sortedAttacks() []string {
	set := map[string]bool{}
	for _, id := range s.order {
		for _, a := range s.splits[id].spec.Attacks {
			set[a] = true
		}
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// recordProfile merges one engine run's per-op stats into the suite's
// cross-run aggregate. Safe to call from worker goroutines.
func (s *Suite) recordProfile(stats []core.OpStats) {
	if len(stats) == 0 {
		return
	}
	s.profMu.Lock()
	defer s.profMu.Unlock()
	for _, st := range stats {
		p := s.prof[st.Func]
		if p == nil {
			p = &OpProfile{Func: st.Func}
			s.prof[st.Func] = p
		}
		p.Count++
		if st.Cached {
			p.Cached++
		}
		p.Wall += st.Wall
		p.Allocs += st.Allocs
	}
}

// OpProfiles returns the per-op cost aggregate across every run so far,
// most expensive (by total wall time) first.
func (s *Suite) OpProfiles() []OpProfile {
	s.profMu.Lock()
	defer s.profMu.Unlock()
	out := make([]OpProfile, 0, len(s.prof))
	for _, p := range s.prof {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Wall != out[j].Wall {
			return out[i].Wall > out[j].Wall
		}
		return out[i].Func < out[j].Func
	})
	return out
}

// CacheStats reports the shared cache's activity counters (the zero
// value when the cache is disabled).
func (s *Suite) CacheStats() core.CacheStats {
	if s.cache == nil {
		return core.CacheStats{}
	}
	return s.cache.Stats()
}

// hash is FNV-1a over the string, for deterministic per-run seeds.
func hash(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
