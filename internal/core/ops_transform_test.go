package core

import (
	"math"
	"testing"
)

func trainCtx() *opCtx {
	return &opCtx{stream: oneChunk(), mode: ModeTrain, outName: "o", state: make([]any, 1)}
}

func testCtxFrom(tc *opCtx) *opCtx {
	return &opCtx{stream: oneChunk(), mode: ModeTest, outName: tc.outName, state: tc.state}
}

func TestOneHotVocabularyFixedAtTrain(t *testing.T) {
	tr := NewFrame(4)
	tr.AddS("svc", []string{"http", "dns", "http", "mqtt"})
	tr.AddF("x", []float64{1, 2, 3, 4})
	ctx := trainCtx()
	out, err := opOneHot(ctx, []Value{tr}, params{"col": "svc"})
	if err != nil {
		t.Fatal(err)
	}
	of := out.(*Frame)
	if of.Col("svc=http") == nil || of.Col("svc=dns") == nil || of.Col("svc=mqtt") == nil {
		t.Fatalf("indicator columns missing: %v", of.Names())
	}
	if of.Col("svc") != nil {
		t.Error("original string column should be replaced")
	}
	if of.Col("svc=http").F[0] != 1 || of.Col("svc=http").F[1] != 0 {
		t.Error("indicator values wrong")
	}
	// Test-time: unseen category maps to all-zeros, vocabulary unchanged.
	te := NewFrame(1)
	te.AddS("svc", []string{"telnet"})
	te.AddF("x", []float64{9})
	out2, err := opOneHot(testCtxFrom(ctx), []Value{te}, params{"col": "svc"})
	if err != nil {
		t.Fatal(err)
	}
	tf := out2.(*Frame)
	for _, name := range []string{"svc=http", "svc=dns", "svc=mqtt"} {
		if tf.Col(name).F[0] != 0 {
			t.Errorf("unseen category set %s", name)
		}
	}
}

func TestOneHotMaxCategories(t *testing.T) {
	tr := NewFrame(5)
	tr.AddS("k", []string{"a", "a", "b", "c", "d"})
	ctx := trainCtx()
	out, err := opOneHot(ctx, []Value{tr}, params{"col": "k", "max_categories": 2.0})
	if err != nil {
		t.Fatal(err)
	}
	of := out.(*Frame)
	if len(of.Cols) != 2 { // top-2 by frequency: a plus one of b/c/d
		t.Fatalf("got %d indicator columns, want 2: %v", len(of.Cols), of.Names())
	}
	if of.Col("k=a") == nil {
		t.Error("most frequent category must survive the cap")
	}
}

func TestDeriveRatioAndLog(t *testing.T) {
	f := NewFrame(3)
	f.AddF("a", []float64{10, 20, 5})
	f.AddF("b", []float64{2, 0, 5})
	out, err := opDerive(nil, []Value{f}, params{"fn": "ratio", "a": "a", "b": "b"})
	if err != nil {
		t.Fatal(err)
	}
	r := out.(*Frame).Col("ratio_a_b").F
	if r[0] != 5 || r[1] != 20 /* div-by-zero falls back to a */ || r[2] != 1 {
		t.Errorf("ratio = %v", r)
	}
	out2, err := opDerive(nil, []Value{f}, params{"fn": "log1p", "a": "a", "out": "la"})
	if err != nil {
		t.Fatal(err)
	}
	if got := out2.(*Frame).Col("la").F[0]; math.Abs(got-math.Log1p(10)) > 1e-12 {
		t.Errorf("log1p = %v", got)
	}
	if _, err := opDerive(nil, []Value{f}, params{"fn": "nope", "a": "a"}); err == nil {
		t.Error("unknown fn should error")
	}
}

func TestClipWinsorizes(t *testing.T) {
	tr := NewFrame(101)
	vals := make([]float64, 101)
	for i := range vals {
		vals[i] = float64(i) // 0..100
	}
	tr.AddF("v", vals)
	ctx := trainCtx()
	out, err := opClip(ctx, []Value{tr}, params{"quantile": 0.9})
	if err != nil {
		t.Fatal(err)
	}
	c := out.(*Frame).Col("v").F
	if c[100] > 91 || c[0] < 9 {
		t.Errorf("clip bounds not applied: min=%v max=%v", c[0], c[100])
	}
	// Test frame clips with the SAME bounds.
	te := NewFrame(1)
	te.AddF("v", []float64{1e9})
	out2, err := opClip(testCtxFrom(ctx), []Value{te}, params{})
	if err != nil {
		t.Fatal(err)
	}
	if got := out2.(*Frame).Col("v").F[0]; got > 91 {
		t.Errorf("test clip = %v, want <= train hi", got)
	}
}

func TestLogScaleSignPreserved(t *testing.T) {
	f := NewFrame(2)
	f.AddF("v", []float64{-10, 10})
	out, err := opLogScale(nil, []Value{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := out.(*Frame).Col("v").F
	if c[0] >= 0 || c[1] <= 0 || math.Abs(c[0]) != c[1] {
		t.Errorf("log scale = %v, want symmetric signs", c)
	}
}

func TestBalanceDownsamplesMajorityOnlyInTraining(t *testing.T) {
	f := NewFrame(100)
	vals := make([]float64, 100)
	f.AddF("v", vals)
	f.Labels = make([]int, 100)
	for i := 0; i < 10; i++ {
		f.Labels[i] = 1
	}
	ctx := trainCtx()
	ctx.seed = 3
	out, err := opBalance(ctx, []Value{f}, params{})
	if err != nil {
		t.Fatal(err)
	}
	bf := out.(*Frame)
	if bf.N != 20 {
		t.Fatalf("balanced N = %d, want 20 (10 pos + 10 neg)", bf.N)
	}
	pos := 0
	for _, y := range bf.Labels {
		pos += y
	}
	if pos != 10 {
		t.Errorf("positives = %d, want all 10 kept", pos)
	}
	// Test mode must pass the frame through untouched.
	out2, err := opBalance(testCtxFrom(ctx), []Value{f}, params{})
	if err != nil {
		t.Fatal(err)
	}
	if out2.(*Frame).N != 100 {
		t.Error("balance must not drop test rows")
	}
}

func TestPCATransformOp(t *testing.T) {
	tr := NewFrame(50)
	a := make([]float64, 50)
	b := make([]float64, 50)
	for i := range a {
		a[i] = float64(i)
		b[i] = 2 * float64(i)
	}
	tr.AddF("a", a)
	tr.AddF("b", b)
	ctx := trainCtx()
	out, err := opPCATransform(ctx, []Value{tr}, params{"k": 1.0})
	if err != nil {
		t.Fatal(err)
	}
	pf := out.(*Frame)
	if pf.Col("pc0") == nil || len(pf.Cols) != 1 {
		t.Fatalf("pca output cols = %v, want [pc0]", pf.Names())
	}
	// Test-time reuse.
	te := NewFrame(2)
	te.AddF("a", []float64{0, 10})
	te.AddF("b", []float64{0, 20})
	out2, err := opPCATransform(testCtxFrom(ctx), []Value{te}, params{})
	if err != nil {
		t.Fatal(err)
	}
	if out2.(*Frame).N != 2 {
		t.Error("pca test transform wrong size")
	}
}

func TestHeadOp(t *testing.T) {
	f := NewFrame(5)
	f.AddF("v", []float64{1, 2, 3, 4, 5})
	out, err := opHead(nil, []Value{f}, params{"n": 2.0})
	if err != nil {
		t.Fatal(err)
	}
	hf := out.(*Frame)
	if hf.N != 2 || hf.Col("v").F[1] != 2 {
		t.Fatalf("head = %+v", hf.Col("v").F)
	}
	out2, _ := opHead(nil, []Value{f}, params{"n": 50.0})
	if out2.(*Frame).N != 5 {
		t.Error("oversized head should return input unchanged")
	}
}

func TestOpCountMatchesPaperScale(t *testing.T) {
	// The paper identifies "around 30 unique operations"; the registry
	// should be in that neighbourhood.
	if n := len(Ops()); n < 25 {
		t.Errorf("only %d ops registered; the framework should offer ~30", n)
	}
}
