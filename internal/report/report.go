// Package report renders benchmark results as aligned text tables,
// ASCII heatmaps and CSV — the "compact manner (using a heatmap)"
// presentation layer of the paper's evaluation framework.
package report

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Table is a simple aligned text table.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (cells containing
// commas are quoted).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteString(`"` + strings.ReplaceAll(c, `"`, `""`) + `"`)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// Heatmap is a matrix of scores in [0,1]; NaN cells render as gray
// ("cases for which we did not have a dataset ... on which we could
// faithfully run the algorithm").
type Heatmap struct {
	Title    string
	RowNames []string
	ColNames []string
	Cells    [][]float64 // [row][col], NaN = not applicable
}

// NewHeatmap allocates a heatmap with all cells NaN.
func NewHeatmap(title string, rows, cols []string) *Heatmap {
	cells := make([][]float64, len(rows))
	for i := range cells {
		cells[i] = make([]float64, len(cols))
		for j := range cells[i] {
			cells[i][j] = math.NaN()
		}
	}
	return &Heatmap{Title: title, RowNames: rows, ColNames: cols, Cells: cells}
}

// Set stores a value by row/col name; unknown names are ignored.
func (h *Heatmap) Set(row, col string, v float64) {
	ri := indexOf(h.RowNames, row)
	ci := indexOf(h.ColNames, col)
	if ri >= 0 && ci >= 0 {
		h.Cells[ri][ci] = v
	}
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

// String renders the heatmap: numeric cells as 2-digit percentages plus a
// shade glyph, gray cells as " -- ".
func (h *Heatmap) String() string {
	var b strings.Builder
	if h.Title != "" {
		b.WriteString(h.Title + "\n")
	}
	rw := 0
	for _, r := range h.RowNames {
		if len(r) > rw {
			rw = len(r)
		}
	}
	fmt.Fprintf(&b, "%-*s", rw, "")
	for _, c := range h.ColNames {
		fmt.Fprintf(&b, " %6s", trunc(c, 6))
	}
	b.WriteByte('\n')
	for i, r := range h.RowNames {
		fmt.Fprintf(&b, "%-*s", rw, r)
		for j := range h.ColNames {
			v := h.Cells[i][j]
			if math.IsNaN(v) {
				b.WriteString("     --")
			} else {
				fmt.Fprintf(&b, "  %3.0f%%%s", v*100, shade(v))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func shade(v float64) string {
	switch {
	case v >= 0.9:
		return "█"
	case v >= 0.7:
		return "▓"
	case v >= 0.4:
		return "▒"
	case v >= 0.2:
		return "░"
	default:
		return " "
	}
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

// CSV renders the heatmap as CSV with an empty cell for NaN.
func (h *Heatmap) CSV() string {
	t := &Table{Header: append([]string{""}, h.ColNames...)}
	for i, r := range h.RowNames {
		row := []string{r}
		for j := range h.ColNames {
			v := h.Cells[i][j]
			if math.IsNaN(v) {
				row = append(row, "")
			} else {
				row = append(row, fmt.Sprintf("%.4f", v))
			}
		}
		t.Add(row...)
	}
	return t.CSV()
}

// Dist summarizes a distribution of values (one per train/test scenario)
// for box-plot style figures (Figs. 1b, 1c, 7, 8, 9).
type Dist struct {
	Name   string
	Values []float64
}

// Summary returns min, 25th, median, 75th and max.
func (d Dist) Summary() (min, q1, med, q3, max float64) {
	if len(d.Values) == 0 {
		return 0, 0, 0, 0, 0
	}
	cp := append([]float64(nil), d.Values...)
	sort.Float64s(cp)
	q := func(p float64) float64 {
		pos := p * float64(len(cp)-1)
		lo := int(pos)
		frac := pos - float64(lo)
		if lo+1 >= len(cp) {
			return cp[lo]
		}
		return cp[lo]*(1-frac) + cp[lo+1]*frac
	}
	return cp[0], q(0.25), q(0.5), q(0.75), cp[len(cp)-1]
}

// DistTable renders a list of distributions as a five-number summary
// table.
func DistTable(title string, dists []Dist) string {
	t := &Table{Header: []string{title, "n", "min", "q1", "median", "q3", "max"}}
	for _, d := range dists {
		mn, q1, med, q3, mx := d.Summary()
		t.Add(d.Name, fmt.Sprintf("%d", len(d.Values)),
			pct(mn), pct(q1), pct(med), pct(q3), pct(mx))
	}
	return t.String()
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// HumanBytes renders a byte count with a binary-prefix unit, for profile
// and cache-size output ("1.5MiB" rather than 1572864).
func HumanBytes(n int64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%dB", n)
	}
	div, exp := int64(unit), 0
	for m := n / unit; m >= unit; m /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f%ciB", float64(n)/float64(div), "KMGTPE"[exp])
}

// Sparkline renders vals as a one-line unicode block graph ("▁▃▇…"),
// scaled to the min/max of the series — the compact loss-curve view the
// CLI prints per trained model. Empty input yields an empty string; a
// constant series renders mid-height blocks.
func Sparkline(vals []float64) string {
	if len(vals) == 0 {
		return ""
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	out := make([]rune, len(vals))
	for i, v := range vals {
		if hi == lo {
			out[i] = blocks[len(blocks)/2]
			continue
		}
		idx := int((v - lo) / (hi - lo) * float64(len(blocks)-1))
		out[i] = blocks[idx]
	}
	return string(out)
}
