package benchsuite

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Score is a precision/recall pair over N evaluated units.
type Score struct {
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	N         int     `json:"n"`
}

// RunResult is one (algorithm, train dataset, test dataset) evaluation —
// the row type of Lumen's query-friendly result store.
type RunResult struct {
	Alg       string           `json:"alg"`
	TrainDS   string           `json:"train"`
	TestDS    string           `json:"test"`
	Faithful  bool             `json:"faithful"`
	NUnits    int              `json:"n_units"`
	Precision float64          `json:"precision"`
	Recall    float64          `json:"recall"`
	Accuracy  float64          `json:"accuracy"`
	F1        float64          `json:"f1"`
	AUC       float64          `json:"auc"`
	PerAttack map[string]Score `json:"per_attack,omitempty"`
	// Wall is the end-to-end train+test time of this run.
	Wall time.Duration `json:"wall_ns,omitempty"`
	Err  string        `json:"err,omitempty"`
}

// Same reports whether train and test come from the same dataset.
func (r RunResult) Same() bool { return r.TrainDS == r.TestDS }

// OK reports whether the run completed.
func (r RunResult) OK() bool { return r.Err == "" }

// Meta summarizes how the worker pool performed across every runAll
// batch: total batch wall time, summed per-run busy time, and the
// resulting worker utilization (Busy / (Wall × Workers), 1.0 = every
// worker busy the whole time). Manifest records the configuration that
// produced the results, so a saved store is self-describing.
type Meta struct {
	Runs        int           `json:"runs,omitempty"`
	Workers     int           `json:"workers,omitempty"`
	Wall        time.Duration `json:"wall_ns,omitempty"`
	Busy        time.Duration `json:"busy_ns,omitempty"`
	Utilization float64       `json:"utilization,omitempty"`
	Manifest    *Manifest     `json:"manifest,omitempty"`
}

// Manifest is the run manifest embedded in every saved Store: the scoped
// algorithm and dataset IDs, the effective suite configuration, and the
// Go runtime it executed under.
type Manifest struct {
	Scale        float64  `json:"scale"`
	Seed         int64    `json:"seed"`
	Algorithms   []string `json:"algorithms"`
	Datasets     []string `json:"datasets"`
	Workers      int      `json:"workers"`
	Cache        bool     `json:"cache"`
	CacheEntries int      `json:"cache_entries,omitempty"`
	Profile      bool     `json:"profile,omitempty"`
	ChunkRows    int      `json:"chunk_rows,omitempty"`
	ChunkBytes   int      `json:"chunk_bytes,omitempty"`
	// PipelineDepth records the stream depth of every run (0 when every
	// chunk ran on the caller's goroutine).
	PipelineDepth int    `json:"pipeline_depth,omitempty"`
	GoVersion     string `json:"go_version"`
	MaxProcs      int    `json:"max_procs"`
}

// Store accumulates results and answers the queries the figures need.
// It serializes to JSON ("Lumen stores all results in a query-friendly
// format").
type Store struct {
	Results []RunResult `json:"results"`
	Meta    Meta        `json:"meta,omitempty"`
}

// Filter returns the results satisfying pred.
func (s *Store) Filter(pred func(RunResult) bool) []RunResult {
	var out []RunResult
	for _, r := range s.Results {
		if pred(r) {
			out = append(out, r)
		}
	}
	return out
}

// ByAlg groups completed results per algorithm ID.
func (s *Store) ByAlg() map[string][]RunResult {
	out := map[string][]RunResult{}
	for _, r := range s.Results {
		if r.OK() {
			out[r.Alg] = append(out[r.Alg], r)
		}
	}
	return out
}

// Algs returns the algorithm IDs present, sorted.
func (s *Store) Algs() []string {
	set := map[string]bool{}
	for _, r := range s.Results {
		set[r.Alg] = true
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// BestPerPair returns, for every (train, test) pair, the maximum
// precision and recall any algorithm achieved (the Fig. 7 reference
// lines).
func (s *Store) BestPerPair() map[[2]string][2]float64 {
	out := map[[2]string][2]float64{}
	for _, r := range s.Results {
		if !r.OK() {
			continue
		}
		k := [2]string{r.TrainDS, r.TestDS}
		best := out[k]
		if r.Precision > best[0] {
			best[0] = r.Precision
		}
		if r.Recall > best[1] {
			best[1] = r.Recall
		}
		out[k] = best
	}
	return out
}

// Save writes the store as indented JSON.
func (s *Store) Save(path string) error {
	data, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Load reads a store written by Save.
func Load(path string) (*Store, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Store
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, err
	}
	return &s, nil
}
