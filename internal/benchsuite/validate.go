package benchsuite

import (
	"fmt"

	"lumen/internal/algorithms"
	"lumen/internal/core"
	"lumen/internal/dataset"
	"lumen/internal/mlkit"
	"lumen/internal/report"
)

// ValidationRow is one §5.2 correctness check: a Lumen score next to the
// score the original paper reported for (approximately) the same setup.
type ValidationRow struct {
	Case     string
	Metric   string
	Reported float64 // from the original paper, as cited in §5.2
	Measured float64
}

// Validate reproduces the §5.2 validation runs:
//
//	A10 (smartdet) on F1 (CICIDS 2017 DoS):   paper reports 99% precision.
//	A14 (Zeek) on combined F4–F9 (CTU):       paper reports ~99.9%, Lumen 99.6%.
//	A07 (OCSVM) on F0–F2 (CICIDS 2017):       authors report 78.6% AUC, Lumen 66%.
//	A07 (OCSVM) on F4–F9 (CTU):               authors report 75% AUC, Lumen 49.2%.
//
// The absolute numbers here come from the synthetic stand-in corpora, so
// the check is the paper's own: supervised cases land close to the
// reported scores, while the unsupervised OCSVM cases land clearly lower
// than their papers' reports, mirroring the gap Lumen itself measured.
func (s *Suite) Validate() ([]ValidationRow, error) {
	var rows []ValidationRow

	// A10 on F1.
	if sp, ok := s.splits["F1"]; ok {
		p, err := s.trainTest("A10", sp.train, sp.test)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ValidationRow{"A10 (smartdet) on F1 (DoS)", "precision", 0.99, p.precision})
	}
	// A14 on combined CTU (F4-F9).
	ctu := s.combined([]string{"F4", "F5", "F6", "F7", "F8", "F9"})
	if ctu != nil {
		tr, te := InterleaveSplit(ctu)
		p, err := s.trainTest("A14", tr, te)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ValidationRow{"A14 (Zeek) on CTU F4-F9", "precision", 0.996, p.precision})
	}
	// A07 AUC on CICIDS (F0-F2) and CTU (F4-F9).
	cic := s.combined([]string{"F0", "F1", "F2"})
	if cic != nil {
		tr, te := InterleaveSplit(cic)
		p, err := s.trainTest("A07", tr, te)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ValidationRow{"A07 (OCSVM) on CICIDS F0-F2", "auc", 0.66, p.auc})
	}
	if ctu != nil {
		tr, te := InterleaveSplit(ctu)
		p, err := s.trainTest("A07", tr, te)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ValidationRow{"A07 (OCSVM) on CTU F4-F9", "auc", 0.492, p.auc})
	}
	return rows, nil
}

type scored struct {
	precision, auc float64
}

func (s *Suite) trainTest(algID string, train, test *dataset.Labeled) (scored, error) {
	alg, ok := algorithms.Get(algID)
	if !ok {
		return scored{}, fmt.Errorf("benchsuite: unknown algorithm %s", algID)
	}
	eng := core.NewEngine(alg.Pipeline)
	eng.Seed = s.cfg.Seed + int64(hash(algID+train.Name+test.Name))
	if err := eng.Train(train); err != nil {
		return scored{}, err
	}
	res, err := eng.Test(test)
	if err != nil {
		return scored{}, err
	}
	out := scored{
		precision: mlkit.Precision(res.Truth, res.Pred),
		auc:       0.5,
	}
	if res.Scores != nil {
		out.auc = mlkit.AUC(res.Truth, res.Scores)
	}
	return out, nil
}

// combined concatenates full datasets by ID (nil when none in scope).
func (s *Suite) combined(ids []string) *dataset.Labeled {
	var parts []*dataset.Labeled
	for _, id := range ids {
		if sp, ok := s.splits[id]; ok {
			parts = append(parts, sp.full)
		}
	}
	if len(parts) == 0 {
		return nil
	}
	return dataset.Merge("combined", 1.0, parts...)
}

// ValidationTable renders the §5.2 comparison.
func ValidationTable(rows []ValidationRow) string {
	t := &report.Table{Header: []string{"Case", "Metric", "PaperReported", "LumenMeasured"}}
	for _, r := range rows {
		t.Add(r.Case, r.Metric,
			fmt.Sprintf("%.1f%%", r.Reported*100),
			fmt.Sprintf("%.1f%%", r.Measured*100))
	}
	return t.String()
}
