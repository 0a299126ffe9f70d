package core

import (
	"fmt"
	"strconv"
)

// UnitKind declares what one frame row represents, so predictions can be
// attributed back to packets or flows for evaluation.
type UnitKind int

// Row units.
const (
	UnitPacket UnitKind = iota
	UnitFlow
	UnitGroup
)

// String names the unit kind ("packet", "flow", "group").
func (k UnitKind) String() string {
	switch k {
	case UnitPacket:
		return "packet"
	case UnitFlow:
		return "flow"
	case UnitGroup:
		return "group"
	default:
		return fmt.Sprintf("unit(%d)", int(k))
	}
}

// Column is one named column: numeric (F) or categorical (S), never both.
type Column struct {
	Name string
	F    []float64
	S    []string
}

// IsNumeric reports whether the column holds float data.
func (c *Column) IsNumeric() bool { return c.F != nil }

// Frame is the columnar table flowing between operations. Columnar layout
// makes aggregate computation a cache-friendly scan — one of the design
// choices the ablation benches measure.
type Frame struct {
	N    int
	Cols []Column

	// Unit declares the row unit; UnitIdx maps each row to its source
	// index (packet index or flow index). Both optional for derived
	// frames.
	Unit    UnitKind
	UnitIdx []int

	// Labels is the per-row ground truth when known (training frames).
	Labels []int
	// Attacks is the per-row attack attribution ("" = benign).
	Attacks []string
}

// Kind implements Value.
func (*Frame) Kind() Kind { return KindFrame }

// NewFrame returns an empty frame of n rows.
func NewFrame(n int) *Frame {
	return &Frame{N: n}
}

// AddF appends a numeric column. It panics on length mismatch — columns
// are built by ops, so a mismatch is a programming error.
func (f *Frame) AddF(name string, vals []float64) {
	if len(vals) != f.N {
		panic(fmt.Sprintf("core: column %q has %d values, frame has %d rows", name, len(vals), f.N))
	}
	f.Cols = append(f.Cols, Column{Name: name, F: vals})
}

// AddS appends a categorical column.
func (f *Frame) AddS(name string, vals []string) {
	if len(vals) != f.N {
		panic(fmt.Sprintf("core: column %q has %d values, frame has %d rows", name, len(vals), f.N))
	}
	f.Cols = append(f.Cols, Column{Name: name, S: vals})
}

// Col returns the named column, or nil when absent: the last one added
// under the name. Ops look columns up once a chunk, not once a row, so
// a scan costs less than the index every frame would otherwise build.
func (f *Frame) Col(name string) *Column {
	for i := len(f.Cols) - 1; i >= 0; i-- {
		if f.Cols[i].Name == name {
			return &f.Cols[i]
		}
	}
	return nil
}

// Names returns column names in order.
func (f *Frame) Names() []string {
	out := make([]string, len(f.Cols))
	for i := range f.Cols {
		out[i] = f.Cols[i].Name
	}
	return out
}

// Matrix renders the numeric columns as row-major feature vectors, the
// form mlkit models consume: the returned rows share one flat backing
// array, rowMajor's layout.
func (f *Frame) Matrix() [][]float64 { return f.matrix(nil) }

// matrix is Matrix with the backing array and row headers drawn from a.
func (f *Frame) matrix(a *chunkArena) [][]float64 {
	data, k := f.rowMajor(a)
	rows := a.rows(f.N)
	for r := range rows {
		rows[r] = data[r*k : (r+1)*k : (r+1)*k]
	}
	return rows
}

// rowMajor copies the k numeric columns into one f.N × k row-major array
// drawn from a.
func (f *Frame) rowMajor(a *chunkArena) (data []float64, k int) {
	for i := range f.Cols {
		if f.Cols[i].IsNumeric() {
			k++
		}
	}
	data = a.floats(f.N * k)
	j := 0
	for i := range f.Cols {
		c := &f.Cols[i]
		if !c.IsNumeric() {
			continue
		}
		for r, v := range c.F {
			data[r*k+j] = v
		}
		j++
	}
	return data, k
}

// sameRows gives f the row metadata of src, whose rows f's are: src's
// unit kind, unit indices, labels and attacks, shared.
func (f *Frame) sameRows(src *Frame) {
	f.Unit, f.UnitIdx, f.Labels, f.Attacks = src.Unit, src.UnitIdx, src.Labels, src.Attacks
}

// Select returns a new frame with only the named columns (sharing column
// data), preserving unit and label metadata.
func (f *Frame) Select(names []string) (*Frame, error) {
	out := NewFrame(f.N)
	out.sameRows(f)
	for _, n := range names {
		c := f.Col(n)
		if c == nil {
			return nil, fmt.Errorf("core: select: no column %q (have %v)", n, f.Names())
		}
		if c.IsNumeric() {
			out.AddF(n, c.F)
		} else {
			out.AddS(n, c.S)
		}
	}
	return out, nil
}

// FilterRows returns a new frame containing only rows where keep is true.
func (f *Frame) FilterRows(keep []bool) *Frame {
	idx := make([]int, 0, f.N)
	for i, k := range keep {
		if k {
			idx = append(idx, i)
		}
	}
	return f.TakeRows(idx)
}

// TakeRows returns a new frame with the given rows, in order. An
// identity permutation (all rows, original order) is detected in O(n)
// and returns a view sharing the column data, like Select.
func (f *Frame) TakeRows(idx []int) *Frame {
	if len(idx) == f.N {
		identity := true
		for i, r := range idx {
			if r != i {
				identity = false
				break
			}
		}
		if identity {
			out := NewFrame(f.N)
			out.sameRows(f)
			for _, c := range f.Cols {
				if c.IsNumeric() {
					out.AddF(c.Name, c.F)
				} else {
					out.AddS(c.Name, c.S)
				}
			}
			return out
		}
	}
	out := NewFrame(len(idx))
	out.Unit = f.Unit
	if f.UnitIdx != nil {
		out.UnitIdx = make([]int, len(idx))
		for i, r := range idx {
			out.UnitIdx[i] = f.UnitIdx[r]
		}
	}
	if f.Labels != nil {
		out.Labels = make([]int, len(idx))
		for i, r := range idx {
			out.Labels[i] = f.Labels[r]
		}
	}
	if f.Attacks != nil {
		out.Attacks = make([]string, len(idx))
		for i, r := range idx {
			out.Attacks[i] = f.Attacks[r]
		}
	}
	for _, c := range f.Cols {
		if c.IsNumeric() {
			vals := make([]float64, len(idx))
			for i, r := range idx {
				vals[i] = c.F[r]
			}
			out.AddF(c.Name, vals)
		} else {
			vals := make([]string, len(idx))
			for i, r := range idx {
				vals[i] = c.S[r]
			}
			out.AddS(c.Name, vals)
		}
	}
	return out
}

// Grouped is a frame partitioned into row groups by key.
type Grouped struct {
	F      *Frame
	Keys   []string // group key per group
	Groups [][]int  // row indices per group
	// GroupOf maps each frame row to its group, -1 when ungrouped.
	GroupOf []int
}

// Kind implements Value.
func (*Grouped) Kind() Kind { return KindGrouped }

// groupRows partitions rows of f by the concatenated string value of the
// key columns, deterministically ordered by first appearance.
func groupRows(f *Frame, keyCols []string) (*Grouped, error) {
	cols := make([]*Column, len(keyCols))
	for i, n := range keyCols {
		c := f.Col(n)
		if c == nil {
			return nil, fmt.Errorf("core: group_by: no column %q", n)
		}
		cols[i] = c
	}
	g := &Grouped{F: f, GroupOf: make([]int, f.N)}
	index := map[string]int{}
	// Keys are built into one reused byte buffer: strconv.AppendFloat with
	// 'g'/-1 emits exactly what fmt.Sprintf("%g") did, without the fmt
	// machinery or the per-column string concatenations.
	var buf []byte
	for r := 0; r < f.N; r++ {
		buf = buf[:0]
		for i, c := range cols {
			if i > 0 {
				buf = append(buf, '|')
			}
			if c.IsNumeric() {
				buf = appendG(buf, c.F[r])
			} else {
				buf = append(buf, c.S[r]...)
			}
		}
		gi, ok := index[string(buf)]
		if !ok {
			gi = len(g.Groups)
			key := string(buf)
			index[key] = gi
			g.Keys = append(g.Keys, key)
			g.Groups = append(g.Groups, nil)
		}
		g.Groups[gi] = append(g.Groups[gi], r)
		g.GroupOf[r] = gi
	}
	return g, nil
}

// appendG appends v formatted exactly as fmt.Sprintf("%g", v): shortest
// round-trip representation, including fmt's "+Inf"/"-Inf"/"NaN" forms.
func appendG(buf []byte, v float64) []byte {
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}
