package mlkit

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func roundTrip(t *testing.T, c Classifier) Classifier {
	t.Helper()
	data, err := MarshalModel(c)
	if err != nil {
		t.Fatal(err)
	}
	out, err := UnmarshalModel(data)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func assertSamePredictions(t *testing.T, a, b Classifier, X [][]float64) {
	t.Helper()
	pa, pb := a.Predict(X), b.Predict(X)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("prediction %d differs after round trip: %d vs %d", i, pa[i], pb[i])
		}
	}
}

func TestPersistDecisionTree(t *testing.T) {
	X, y := xorData(400, 401)
	tr := &DecisionTree{Seed: 1}
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	assertSamePredictions(t, tr, roundTrip(t, tr), X)
}

func TestPersistRandomForest(t *testing.T) {
	X, y := blobs(300, 4, 2, 403)
	f := &RandomForest{NTrees: 10, Seed: 1}
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	loaded := roundTrip(t, f)
	assertSamePredictions(t, f, loaded, X)
	// Probabilities must survive too (they drive AUC).
	pa := f.Proba(X)
	pb := loaded.(*RandomForest).Proba(X)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("proba %d differs: %v vs %v", i, pa[i], pb[i])
		}
	}
}

// infSplitSet is a training set whose tree splits feature 0 at -Inf
// (its lowest value) and then feature 1 at +Inf (the midpoint of 1 and
// +Inf, with the NaN rows going right).
func infSplitSet() ([][]float64, []int) {
	inf, nan := math.Inf(1), math.NaN()
	X := [][]float64{{-inf, 0}, {-inf, 0}, {0, 1}, {0, inf}, {0, nan}, {0, nan}}
	return X, []int{1, 1, 0, 0, 1, 1}
}

// TestPersistInfiniteThresholds: a tree family split at ±Inf saves (the
// infinities as strings), loads and scores bit for bit as fitted.
func TestPersistInfiniteThresholds(t *testing.T) {
	X, y := infSplitSet()
	tr := &DecisionTree{}
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if n := tr.flat.nodes; len(n) != 5 || !math.IsInf(n[0].threshold, -1) || !math.IsInf(n[2].threshold, 1) {
		t.Fatalf("nodes = %+v, want a -Inf root split and a +Inf split below it", n)
	}
	data, err := MarshalModel(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"t": "-Inf"`)) || !bytes.Contains(data, []byte(`"t": "+Inf"`)) {
		t.Fatalf("saved tree does not write both infinite thresholds as strings:\n%s", data)
	}
	rows := append(X, []float64{5, 2}, []float64{math.Inf(-1), math.NaN()})
	f := &RandomForest{NTrees: 7, MaxFeatures: 2, Seed: 1}
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for _, c := range []FusedClassifier{tr, f} {
		loaded := roundTrip(t, c).(FusedClassifier)
		wantPred, wantProba := c.PredictProba(rows)
		pred, proba := loaded.PredictProba(rows)
		assertBitIdentical(t, fmt.Sprintf("loaded %T", c), pred, wantPred, proba, wantProba)
	}
}

func TestPersistGaussianNB(t *testing.T) {
	X, y := blobs(300, 3, 3, 407)
	g := &GaussianNB{}
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	assertSamePredictions(t, g, roundTrip(t, g), X)
}

func TestPersistGaussianNBWithMissingClass(t *testing.T) {
	// Labels 0 and 2 only: class 1's prior is -Inf, which JSON cannot
	// carry directly — the sentinel path must restore it.
	X := [][]float64{{0}, {0.1}, {6}, {6.1}}
	y := []int{0, 0, 2, 2}
	g := &GaussianNB{}
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	loaded := roundTrip(t, g)
	assertSamePredictions(t, g, loaded, X)
	for _, p := range loaded.Predict(X) {
		if p == 1 {
			t.Fatal("restored model predicted the absent class")
		}
	}
}

func TestSaveLoadModelFile(t *testing.T) {
	X, y := blobs(100, 2, 3, 409)
	tr := &DecisionTree{Seed: 1}
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := SaveModel(path, tr); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSamePredictions(t, tr, loaded, X)
}

func TestPersistRejectsUnsupported(t *testing.T) {
	if _, err := MarshalModel(&KNN{}); err == nil {
		t.Error("KNN persistence should be unsupported")
	}
	if _, err := UnmarshalModel([]byte(`{"version":1,"type":"alien","data":{}}`)); err == nil {
		t.Error("unknown type should fail")
	}
	if _, err := UnmarshalModel([]byte(`{"version":9,"type":"decision_tree","data":{}}`)); err == nil {
		t.Error("unknown version should fail")
	}
	if _, err := UnmarshalModel([]byte("not json")); err == nil {
		t.Error("garbage should fail")
	}
}

// TestUnmarshalRejectsMalformedModels: a model file is outside input
// (lumend loads whatever POST /swap names). Each envelope here used to
// load and then panic — or, for the cycle, spin forever — on the scoring
// goroutine; every one must now be refused at load.
func TestUnmarshalRejectsMalformedModels(t *testing.T) {
	const leaf = `{"f":-1,"t":0,"l":0,"r":0,"p":[0.5,0.5]}`
	tree := func(classes int, nodes string) string {
		return fmt.Sprintf(`{"classes":%d,"nodes":[%s]}`, classes, nodes)
	}
	envelope := func(typ, data string) string {
		return fmt.Sprintf(`{"version":1,"type":%q,"data":%s}`, typ, data)
	}
	good := tree(2, `{"f":0,"t":0.5,"l":1,"r":2},`+leaf+`,`+leaf)
	if _, err := UnmarshalModel([]byte(envelope("decision_tree", good))); err != nil {
		t.Fatalf("the well-formed tree the cases below are derived from does not load: %v", err)
	}

	trees := map[string]string{
		"right child out of range": tree(2, `{"f":0,"t":0.5,"l":1,"r":7},`+leaf+`,`+leaf),
		"left child negative":      tree(2, `{"f":0,"t":0.5,"l":-1,"r":2},`+leaf+`,`+leaf),
		"cycle back to the root":   tree(2, `{"f":0,"t":0.5,"l":0,"r":1},`+leaf),
		"cycle between two nodes":  tree(2, `{"f":0,"t":0.5,"l":1,"r":2},{"f":1,"t":0.5,"l":0,"r":2},`+leaf),
		"subtree shared":           tree(2, `{"f":0,"t":0.5,"l":1,"r":1},`+leaf),
		"feature below -1":         tree(2, `{"f":-2,"t":0.5,"l":1,"r":2},`+leaf+`,`+leaf),
		"leaf without p":           tree(2, `{"f":0,"t":0.5,"l":1,"r":2},{"f":-1,"t":0,"l":0,"r":0},`+leaf),
		"leaf with too few values": tree(3, `{"f":-1,"t":0,"l":0,"r":0,"p":[0.5,0.5]}`),
		"leaf with too many":       tree(2, `{"f":-1,"t":0,"l":0,"r":0,"p":[0.2,0.3,0.5]}`),
		"classes below two":        tree(1, `{"f":-1,"t":0,"l":0,"r":0,"p":[1]}`),
		"no nodes":                 tree(2, ``),
		"unreachable node":         tree(2, leaf+`,`+leaf),
	}
	for name, data := range trees {
		if _, err := UnmarshalModel([]byte(envelope("decision_tree", data))); err == nil {
			t.Errorf("decision_tree, %s: loaded without error", name)
		}
		forest := fmt.Sprintf(`{"classes":2,"trees":[%s,%s]}`, good, data)
		if _, err := UnmarshalModel([]byte(envelope("random_forest", forest))); err == nil {
			t.Errorf("random_forest with such a tree, %s: loaded without error", name)
		}
	}

	forests := map[string]string{
		"zero trees":                   `{"classes":2,"trees":[]}`,
		"classes below two":            fmt.Sprintf(`{"classes":1,"trees":[%s]}`, good),
		"tree wider than the forest":   fmt.Sprintf(`{"classes":2,"trees":[%s]}`, tree(3, `{"f":-1,"t":0,"l":0,"r":0,"p":[0.2,0.3,0.5]}`)),
		"trees is not a list of trees": `{"classes":2,"trees":[7]}`,
	}
	for name, data := range forests {
		if _, err := UnmarshalModel([]byte(envelope("random_forest", data))); err == nil {
			t.Errorf("random_forest, %s: loaded without error", name)
		}
	}

	nbs := map[string]string{
		"classes below two":  `{"classes":0,"priors":[],"means":[],"vars":[],"presence":[]}`,
		"priors too short":   `{"classes":2,"priors":[-0.7],"means":[[0],[1]],"vars":[[1],[1]],"presence":[true,true]}`,
		"presence too short": `{"classes":2,"priors":[-0.7,-0.7],"means":[[0],[1]],"vars":[[1],[1]],"presence":[true]}`,
		"ragged means":       `{"classes":2,"priors":[-0.7,-0.7],"means":[[0,0],[1]],"vars":[[1,1],[1,1]],"presence":[true,true]}`,
		"vars narrower":      `{"classes":2,"priors":[-0.7,-0.7],"means":[[0,0],[1,1]],"vars":[[1],[1]],"presence":[true,true]}`,
	}
	for name, data := range nbs {
		if _, err := UnmarshalModel([]byte(envelope("gaussian_nb", data))); err == nil {
			t.Errorf("gaussian_nb, %s: loaded without error", name)
		}
	}
}

// TestLoadModelRejectsMalformedFile: the file entry point fails the same way.
func TestLoadModelRejectsMalformedFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cyclic.json")
	cyclic := `{"version":1,"type":"decision_tree","data":{"classes":2,"nodes":[{"f":0,"t":0.5,"l":0,"r":0}]}}`
	if err := os.WriteFile(path, []byte(cyclic), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(path); err == nil {
		t.Fatal("LoadModel accepted a tree whose root is its own child")
	}
}
