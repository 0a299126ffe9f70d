package report

import (
	"math"
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := &Table{Header: []string{"a", "longer"}}
	tb.Add("xxxx", "y")
	tb.Add("z", "w")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header, rule, two rows
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), out)
	}
	if len(lines[0]) != len(lines[1]) {
		t.Errorf("rule length %d != header length %d", len(lines[1]), len(lines[0]))
	}
	if !strings.HasPrefix(lines[2], "xxxx") {
		t.Errorf("row misaligned: %q", lines[2])
	}
}

func TestTableCSVQuoting(t *testing.T) {
	tb := &Table{Header: []string{"k", "v"}}
	tb.Add("a,b", `say "hi"`)
	csv := tb.CSV()
	if !strings.Contains(csv, `"a,b"`) {
		t.Errorf("comma cell not quoted: %s", csv)
	}
	if !strings.Contains(csv, `"say ""hi"""`) {
		t.Errorf("quote cell not escaped: %s", csv)
	}
}

func TestHeatmapSetGetAndNaN(t *testing.T) {
	h := NewHeatmap("t", []string{"r1", "r2"}, []string{"c1", "c2"})
	if !math.IsNaN(h.Cells[0][0]) {
		t.Error("fresh cell should be NaN")
	}
	h.Set("r1", "c2", 0.5)
	if got := h.Cells[0][1]; got != 0.5 {
		t.Errorf("cell r1/c2 = %v, want 0.5", got)
	}
	h.Set("nope", "c1", 1) // ignored
	h.Set("r2", "zz", 1)   // ignored
	for i, row := range h.Cells {
		for j, v := range row {
			if (i != 0 || j != 1) && !math.IsNaN(v) {
				t.Errorf("cell %d/%d = %v: a Set with an unknown name must not write anywhere", i, j, v)
			}
		}
	}
}

func TestHeatmapRenderGrayCells(t *testing.T) {
	h := NewHeatmap("title", []string{"alg"}, []string{"atk"})
	out := h.String()
	if !strings.Contains(out, "--") {
		t.Errorf("NaN cell should render as --:\n%s", out)
	}
	h.Set("alg", "atk", 0.93)
	out = h.String()
	if !strings.Contains(out, "93%") {
		t.Errorf("value cell should render a percentage:\n%s", out)
	}
}

func TestHeatmapCSV(t *testing.T) {
	h := NewHeatmap("", []string{"r"}, []string{"c1", "c2"})
	h.Set("r", "c1", 0.25)
	csv := h.CSV()
	if !strings.Contains(csv, "0.2500") {
		t.Errorf("csv missing value: %s", csv)
	}
	lines := strings.Split(strings.TrimRight(csv, "\n"), "\n")
	if lines[1] != "r,0.2500," {
		t.Errorf("NaN should be empty cell: %q", lines[1])
	}
}

func TestDistSummary(t *testing.T) {
	d := Dist{Name: "x", Values: []float64{0, 0.25, 0.5, 0.75, 1}}
	mn, q1, med, q3, mx := d.Summary()
	if mn != 0 || q1 != 0.25 || med != 0.5 || q3 != 0.75 || mx != 1 {
		t.Errorf("summary = %v %v %v %v %v", mn, q1, med, q3, mx)
	}
	var empty Dist
	if a, b, c, dd, e := empty.Summary(); a+b+c+dd+e != 0 {
		t.Error("empty summary should be zeros")
	}
}

func TestDistTable(t *testing.T) {
	out := DistTable("alg", []Dist{{Name: "A", Values: []float64{0.5, 0.7}}})
	if !strings.Contains(out, "A") || !strings.Contains(out, "50.0%") {
		t.Errorf("dist table missing content:\n%s", out)
	}
}

func TestShadeBands(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0.95, "█"}, {0.8, "▓"}, {0.5, "▒"}, {0.3, "░"}, {0.05, " "},
	}
	for _, c := range cases {
		if got := shade(c.v); got != c.want {
			t.Errorf("shade(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestSparkline(t *testing.T) {
	if got := Sparkline(nil); got != "" {
		t.Errorf("Sparkline(nil) = %q, want empty", got)
	}
	got := Sparkline([]float64{0, 0.5, 1})
	if want := "▁▄█"; got != want {
		t.Errorf("Sparkline ramp = %q, want %q", got, want)
	}
	// A constant series must not divide by zero.
	if got := Sparkline([]float64{2, 2, 2}); len([]rune(got)) != 3 {
		t.Errorf("constant sparkline = %q, want 3 runes", got)
	}
	// Descending loss curve: first rune highest, last lowest.
	r := []rune(Sparkline([]float64{9, 5, 3, 2, 1}))
	if r[0] != '█' || r[len(r)-1] != '▁' {
		t.Errorf("descending sparkline = %q", string(r))
	}
}
