package harness

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	// pass [0,100] ─ chunk [10,60] ─ predict [20,30], proba [30,45], write [50,60]
	//              ─ next  [0,10]
	//              ─ next  [55,70]   (read-ahead on another goroutine: overlaps the chunk)
	//              ─ write [90,120]  (child running past its parent is clipped)
	spans := []Span{
		{Name: SpanPass, Start: 0, End: 100, Parent: -1},
		{Name: SpanChunk, Start: 10, End: 60, Parent: 0},
		{Name: SpanPredict, Start: 20, End: 30, Parent: 1},
		{Name: SpanProba, Start: 30, End: 45, Parent: 1},
		{Name: SpanAlertW, Start: 50, End: 60, Parent: 1},
		{Name: SpanNext, Start: 0, End: 10, Parent: 0},
		{Name: SpanNext, Start: 55, End: 70, Parent: 0},
		{Name: SpanConnLogW, Start: 90, End: 120, Parent: 0},
	}
	want := []int64{
		100 - (10 + 50 + 10 + 10), // next, chunk, the 60–70 rest of the overlapping next, clipped write
		50 - (10 + 15 + 10),
		10, 15, 10, 10, 15, 30,
	}
	got := SelfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	// Self times of a tree partition the root's interval (children that
	// stay inside their parent).
	inside := spans[:7]
	sum := int64(0)
	for _, s := range SelfTimes(inside) {
		sum += s
	}
	if overlap := int64(5); sum != 100+overlap {
		t.Errorf("self times sum to %d, want the pass's 100 plus the 5 two goroutines spent at once", sum)
	}
}

func TestPercentile(t *testing.T) {
	var xs []float64
	for i := 1; i <= 1000; i++ {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 500}, {90, 900}, {99, 990}, {99.9, 999}, {100, 1000}} {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(1..1000, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 99); got != 0 {
		t.Errorf("Percentile of nothing = %g, want 0", got)
	}
	if got := Percentile([]float64{7}, 99); got != 7 {
		t.Errorf("Percentile of one sample = %g, want 7", got)
	}
}

func TestSupportedTail(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := SupportedTail(c.n); got != c.want {
			t.Errorf("SupportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %g", got)
	}
}

// at is a fixed instant i units after the recorder's epoch.
func at(r *Recorder, i int) time.Time { return r.epoch.Add(time.Duration(i)) }

func TestRecorderAttributesSinkSpansToOldestChunk(t *testing.T) {
	r := NewRecorder(4)
	r.BeginPass(at(r, 0), true)
	// A staged run reads two chunks ahead before the sink scores the first.
	r.NextStart(at(r, 0))
	r.Next(at(r, 0), at(r, 10), true, 512, 1000)
	r.NextStart(at(r, 0))
	r.Next(at(r, 10), at(r, 20), true, 512, 1000)
	r.Sink(SpanPredict, at(r, 20), at(r, 30), 512, 0)
	r.Sink(SpanAlertW, at(r, 30), at(r, 35), 0, 99)
	r.Recycle(at(r, 35), at(r, 36))
	r.Sink(SpanPredict, at(r, 36), at(r, 50), 512, 0)
	r.Recycle(at(r, 50), at(r, 51))
	r.NextStart(at(r, 0))
	r.Next(at(r, 20), at(r, 52), false, 0, 0)
	r.Sink(SpanAlertW, at(r, 60), at(r, 70), 0, 10) // flush-phase write: no chunk open
	r.EndPass(at(r, 80))

	spans := r.Spans()
	var chunks []int
	for i, s := range spans {
		if s.Name == SpanChunk {
			chunks = append(chunks, i)
		}
	}
	if len(chunks) != 2 {
		t.Fatalf("%d chunk spans, want 2", len(chunks))
	}
	first, second := spans[chunks[0]], spans[chunks[1]]
	if first.Start != 10 || first.End != 35 {
		t.Errorf("first chunk spans [%d,%d], want [10,35]: Next return to the recycle that follows its alert flush", first.Start, first.End)
	}
	if second.Start != 20 || second.End != 50 {
		t.Errorf("second chunk spans [%d,%d], want [20,50]", second.Start, second.End)
	}
	parents := map[string][]int{}
	for _, s := range spans {
		parents[s.Name] = append(parents[s.Name], s.Parent)
	}
	if got := parents[SpanPredict]; got[0] != chunks[0] || got[1] != chunks[1] {
		t.Errorf("predict spans hang under %v, want the chunks %v in order", got, chunks)
	}
	if got := parents[SpanAlertW]; got[0] != chunks[0] || got[1] != 0 {
		t.Errorf("alert writes hang under %v, want [first chunk, pass]", got)
	}
	for _, s := range spans {
		if s.Pass != 1 {
			t.Errorf("span %s carries pass %d, want 1", s.Name, s.Pass)
		}
	}
	if spans[0].Name != SpanPass || spans[0].End != 80 || spans[0].Parent != -1 {
		t.Errorf("root span = %+v", spans[0])
	}
}

func TestRecorderClosesChunkOnNextWithoutRecycler(t *testing.T) {
	r := NewRecorder(4)
	r.BeginPass(at(r, 0), false)
	r.NextStart(at(r, 0))
	r.Next(at(r, 0), at(r, 5), true, 10, 100)
	r.Sink(SpanPredict, at(r, 5), at(r, 9), 10, 0)
	r.NextStart(at(r, 9)) // the feed does not recycle: asking again completes the chunk
	r.Next(at(r, 9), at(r, 12), true, 10, 100)
	r.Sink(SpanPredict, at(r, 12), at(r, 20), 10, 0)
	r.EndPass(at(r, 25))
	var preds []Span
	for _, s := range r.Spans() {
		if s.Name == SpanPredict {
			preds = append(preds, s)
		}
	}
	if preds[0].Parent == preds[1].Parent {
		t.Errorf("both predict spans hang under span %d; the second belongs to the second chunk", preds[0].Parent)
	}
	if first := r.Spans()[preds[0].Parent]; first.Start != 5 || first.End != 9 {
		t.Errorf("first chunk spans [%d,%d], want [5,9]", first.Start, first.End)
	}
	if second := r.Spans()[preds[1].Parent]; second.End != 25 {
		t.Errorf("the chunk still open at the end of the pass ends at %d, want 25", second.End)
	}
}
