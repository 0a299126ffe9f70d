package mlkit

import (
	"math"
	"testing"
)

// fuzzWidth is the widest feature row the fuzz target offers a loaded
// model. The one thing UnmarshalModel cannot validate is how wide the
// rows will be — the envelope does not record it — so models that need
// more columns than this are skipped, not scored.
const fuzzWidth = 32

// modelWidth returns how many columns a loaded model reads from a row
// (a tree family: highest split feature + 1; naive Bayes: its table
// width, which rows must not exceed).
func modelWidth(c Classifier) int {
	var ft *flatTrees
	switch m := c.(type) {
	case *DecisionTree:
		ft = &m.flat
	case *RandomForest:
		ft = &m.flat
	case *GaussianNB:
		return len(m.means[0])
	}
	w := 0
	for _, n := range ft.nodes {
		if int(n.feature) >= w {
			w = int(n.feature) + 1
		}
	}
	return w
}

// checkForwardEdges asserts the property that bounds every walk of a
// loaded tree family: in the flat layout each child sits after its
// parent, so a row reaches a leaf in fewer steps than there are nodes,
// and each leaf's distribution lies inside the leaf table.
func checkForwardEdges(t *testing.T, ft *flatTrees) {
	t.Helper()
	for i, n := range ft.nodes {
		if n.feature < 0 {
			if n.right < 0 || int(n.right)+ft.classes > len(ft.leaves) {
				t.Fatalf("leaf %d: distribution [%d,%d) outside the %d-value leaf table", i, n.right, int(n.right)+ft.classes, len(ft.leaves))
			}
			continue
		}
		if i+1 >= len(ft.nodes) || int(n.right) <= i+1 || int(n.right) >= len(ft.nodes) {
			t.Fatalf("node %d of %d: children %d and %d do not both lie after it", i, len(ft.nodes), i+1, n.right)
		}
	}
}

// FuzzUnmarshalModel feeds arbitrary bytes to the model loader that
// lumend's POST /swap reaches. The property: UnmarshalModel returns an
// error, or a model that scores a fixed matrix without panicking, walks
// each tree in a bounded number of steps, and survives a save → load
// round trip with bit-identical output.
func FuzzUnmarshalModel(f *testing.F) {
	X, y := threeClass(120, 2, 29)
	for _, c := range []Classifier{
		&DecisionTree{MaxDepth: 4, Seed: 1},
		&RandomForest{NTrees: 3, MaxDepth: 3, Seed: 1},
		&GaussianNB{},
	} {
		if err := c.Fit(X, y); err != nil {
			f.Fatal(err)
		}
		data, err := MarshalModel(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"version":1,"type":"decision_tree","data":{"classes":2,"nodes":[{"f":0,"t":0.5,"l":0,"r":0}]}}`))
	// A tree split at -Inf and +Inf: thresholds written as strings.
	tx, ty := infSplitSet()
	inf := &DecisionTree{}
	if err := inf.Fit(tx, ty); err != nil {
		f.Fatal(err)
	}
	data, err := MarshalModel(inf)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)

	rng := NewRNG(31)
	fixed := make([][]float64, 8)
	for i := range fixed {
		fixed[i] = make([]float64, fuzzWidth)
		for j := range fixed[i] {
			fixed[i][j] = 4*rng.Float64() - 1
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := UnmarshalModel(data)
		if err != nil {
			return
		}
		switch m := c.(type) {
		case *DecisionTree:
			checkForwardEdges(t, &m.flat)
		case *RandomForest:
			checkForwardEdges(t, &m.flat)
		}
		w := modelWidth(c)
		if w > fuzzWidth {
			t.Skip("model reads more columns than the fixed matrix has")
		}
		rows := make([][]float64, len(fixed))
		for i := range rows {
			rows[i] = fixed[i][:w]
		}
		pred, proba := PredictProba(c, rows)
		if len(pred) != len(rows) || len(proba) != len(rows) {
			t.Fatalf("scored %d rows into %d labels and %d scores", len(rows), len(pred), len(proba))
		}

		saved, err := MarshalModel(c)
		if err != nil {
			t.Fatalf("a loaded model does not marshal: %v", err)
		}
		again, err := UnmarshalModel(saved)
		if err != nil {
			t.Fatalf("a loaded model's own save does not load: %v", err)
		}
		pred2, proba2 := PredictProba(again, rows)
		for i := range pred {
			if pred[i] != pred2[i] || math.Float64bits(proba[i]) != math.Float64bits(proba2[i]) {
				t.Fatalf("row %d: (%d, %v) before the round trip, (%d, %v) after", i, pred[i], proba[i], pred2[i], proba2[i])
			}
		}
	})
}
