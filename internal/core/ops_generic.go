package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"lumen/internal/features"
	"lumen/internal/mlkit"
)

func init() {
	register("group_by", "partition frame rows by one or more key columns",
		opSig{in: []Kind{KindFrame}, out: KindGrouped},
		opTraits{class: classBarrier, cacheable: true}, opGroupBy)
	register("time_slice", "refine groups (or whole frame) into fixed time windows using the ts column",
		opSig{in: []Kind{KindGrouped}, out: KindGrouped},
		opTraits{class: classBarrier, cacheable: true}, opTimeSlice)
	register("apply_aggregates", "compute aggregate functions per group -> one row per group (mean/std/median/min/max/sum/count/rate/entropy/distinct)",
		opSig{in: []Kind{KindGrouped}, out: KindFrame},
		opTraits{class: classBarrier, cacheable: true}, opApplyAggregates)
	register("broadcast_aggregates", "compute aggregates per group and attach them to every member row (per-packet classification with group context)",
		opSig{in: []Kind{KindGrouped}, out: KindFrame},
		opTraits{class: classBarrier, cacheable: true}, opBroadcastAggregates)
	register("select", "project a frame onto named columns",
		opSig{in: []Kind{KindFrame}, out: KindFrame},
		opTraits{class: classRowLocal, cacheable: true}, opSelect)
	register("filter", "keep rows satisfying col <op> value (==, !=, >, <, >=, <=)",
		opSig{in: []Kind{KindFrame}, out: KindFrame},
		opTraits{class: classRowLocal, cacheable: true}, opFilter)
	register("concat_cols", "concatenate the columns of equal-length frames",
		opSig{in: []Kind{KindFrame, KindFrame}, out: KindFrame, variadicIn: true},
		opTraits{class: classRowLocal, cacheable: true}, opConcatCols)
	register("drop_const", "drop numeric columns with zero variance on the training data",
		opSig{in: []Kind{KindFrame}, out: KindFrame},
		opTraits{class: classFitted}, opDropConst)
	register("normalize", "scale numeric columns (zscore or minmax); fitted on training data, reused at test time",
		opSig{in: []Kind{KindFrame}, out: KindFrame},
		opTraits{class: classFitted}, opNormalize)
	register("drop_correlated", "drop numeric columns highly correlated with an earlier one; fitted on training data",
		opSig{in: []Kind{KindFrame}, out: KindFrame},
		opTraits{class: classFitted}, opDropCorrelated)
	register("sample", "deterministically subsample rows (frac or n)",
		opSig{in: []Kind{KindFrame}, out: KindFrame},
		opTraits{class: classBarrier}, opSample)
}

func opGroupBy(_ *opCtx, in []Value, p params) (Value, error) {
	f, err := asFrame(in[0])
	if err != nil {
		return nil, err
	}
	keys := p.strList("flowid")
	if len(keys) == 0 {
		keys = p.strList("keys")
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("group_by: no key columns (param flowid/keys)")
	}
	return groupRows(f, keys)
}

func opTimeSlice(_ *opCtx, in []Value, p params) (Value, error) {
	g, ok := in[0].(*Grouped)
	if !ok {
		return nil, fmt.Errorf("time_slice: expected grouped, got %v", in[0].Kind())
	}
	window := p.f64("window", 10)
	if window <= 0 {
		return nil, fmt.Errorf("time_slice: window must be positive")
	}
	ts := g.F.Col("ts")
	if ts == nil || !ts.IsNumeric() {
		return nil, fmt.Errorf("time_slice: frame needs a numeric ts column")
	}
	out := &Grouped{F: g.F, GroupOf: make([]int, g.F.N)}
	for i := range out.GroupOf {
		out.GroupOf[i] = -1
	}
	for gi, rows := range g.Groups {
		buckets := map[int64][]int{}
		var order []int64
		for _, r := range rows {
			b := int64(math.Floor(ts.F[r] / window))
			if _, seen := buckets[b]; !seen {
				order = append(order, b)
			}
			buckets[b] = append(buckets[b], r)
		}
		for _, b := range order {
			ni := len(out.Groups)
			out.Keys = append(out.Keys, fmt.Sprintf("%s@%d", g.Keys[gi], b))
			out.Groups = append(out.Groups, buckets[b])
			for _, r := range buckets[b] {
				out.GroupOf[r] = ni
			}
		}
	}
	return out, nil
}

// aggSpec is one {col, fn} aggregate request.
type aggSpec struct {
	col string
	fn  string
}

func parseAggs(p params) ([]aggSpec, error) {
	raw := p.anyList("list")
	if raw == nil {
		raw = p.anyList("aggregates")
	}
	if raw == nil {
		return nil, fmt.Errorf("aggregates: missing list param")
	}
	var out []aggSpec
	for _, e := range raw {
		m, ok := e.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("aggregates: each entry must be an object with col and fn")
		}
		spec := aggSpec{}
		if s, ok := m["col"].(string); ok {
			spec.col = s
		}
		if s, ok := m["fn"].(string); ok {
			spec.fn = s
		}
		if spec.col == "" || spec.fn == "" {
			return nil, fmt.Errorf("aggregates: entry missing col or fn")
		}
		out = append(out, spec)
	}
	return out, nil
}

// aggregate computes one aggregate function over the group rows of col.
// scratch (optional) backs the temporary value copy for fns that need
// one; a worker that aggregates many groups should pass a reused buffer.
// min/max/sum/first/last/count scan the column directly — no copy, no
// sort.
func aggregate(c *Column, rows []int, fn string, tsCol *Column, scratch []float64) (float64, error) {
	if c.IsNumeric() {
		switch fn {
		case "min":
			m := c.F[rows[0]]
			for _, r := range rows[1:] {
				if v := c.F[r]; v < m {
					m = v
				}
			}
			return m, nil
		case "max":
			m := c.F[rows[0]]
			for _, r := range rows[1:] {
				if v := c.F[r]; v > m {
					m = v
				}
			}
			return m, nil
		case "sum":
			var t float64
			for _, r := range rows {
				t += c.F[r]
			}
			return t, nil
		case "count":
			return float64(len(rows)), nil
		case "first":
			return c.F[rows[0]], nil
		case "last":
			return c.F[rows[len(rows)-1]], nil
		case "rate", "bandwidth":
			// events (or units) per second over the group's time span.
			if tsCol == nil {
				return 0, fmt.Errorf("aggregate %s needs a ts column in the frame", fn)
			}
			span := tsCol.F[rows[len(rows)-1]] - tsCol.F[rows[0]]
			if span <= 0 {
				span = 1
			}
			if fn == "rate" {
				return float64(len(rows)) / span, nil
			}
			var t float64
			for _, r := range rows {
				t += c.F[r]
			}
			return t / span, nil
		}
		if cap(scratch) < len(rows) {
			scratch = make([]float64, len(rows))
		}
		vals := scratch[:len(rows)]
		for i, r := range rows {
			vals[i] = c.F[r]
		}
		switch fn {
		case "mean":
			return mlkit.Mean(vals), nil
		case "std":
			return math.Sqrt(mlkit.Variance(vals)), nil
		case "var":
			return mlkit.Variance(vals), nil
		case "median":
			// vals is already a scratch copy — sort in place, one pass.
			return mlkit.QuantileSorted(mlkit.SortedCopy(vals, vals), 0.5), nil
		case "distinct":
			seen := map[float64]bool{}
			for _, v := range vals {
				seen[v] = true
			}
			return float64(len(seen)), nil
		case "entropy":
			cnt := features.NewCounter()
			for _, v := range vals {
				cnt.Add(fmt.Sprintf("%g", v))
			}
			return cnt.Entropy(), nil
		}
		return 0, fmt.Errorf("aggregate: unknown numeric fn %q", fn)
	}
	switch fn {
	case "distinct":
		seen := map[string]bool{}
		for _, r := range rows {
			seen[c.S[r]] = true
		}
		return float64(len(seen)), nil
	case "entropy":
		cnt := features.NewCounter()
		for _, r := range rows {
			cnt.Add(c.S[r])
		}
		return cnt.Entropy(), nil
	case "count":
		return float64(len(rows)), nil
	}
	return 0, fmt.Errorf("aggregate: fn %q not valid for string column %q", fn, c.Name)
}

func opApplyAggregates(_ *opCtx, in []Value, p params) (Value, error) {
	g, ok := in[0].(*Grouped)
	if !ok {
		return nil, fmt.Errorf("apply_aggregates: expected grouped, got %v", in[0].Kind())
	}
	specs, err := parseAggs(p)
	if err != nil {
		return nil, err
	}
	tsCol := g.F.Col("ts")
	out := NewFrame(len(g.Groups))
	out.Unit = UnitGroup
	out.Labels = make([]int, out.N)
	out.Attacks = make([]string, out.N)
	cols := make([][]float64, len(specs))
	for j := range cols {
		cols[j] = make([]float64, out.N)
	}
	// Validate columns up front, then aggregate groups on a worker pool
	// (groups are independent — the map-reduce shape the paper exploits).
	srcCols := make([]*Column, len(specs))
	for j, spec := range specs {
		c := g.F.Col(spec.col)
		if c == nil {
			return nil, fmt.Errorf("apply_aggregates: no column %q", spec.col)
		}
		srcCols[j] = c
	}
	workers := runtime.GOMAXPROCS(0)
	if len(g.Groups) < 256 || workers < 2 {
		workers = 1
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	chunk := (len(g.Groups) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > len(g.Groups) {
			hi = len(g.Groups)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			var scratch []float64 // per-worker, reused across groups
			for gi := lo; gi < hi; gi++ {
				rows := g.Groups[gi]
				if cap(scratch) < len(rows) {
					scratch = make([]float64, len(rows))
				}
				for j, spec := range specs {
					v, err := aggregate(srcCols[j], rows, spec.fn, tsCol, scratch[:0])
					if err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						return
					}
					cols[j][gi] = v
				}
				out.Labels[gi], out.Attacks[gi] = majorityLabel(g.F, rows)
			}
		}(lo, hi)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	for j, spec := range specs {
		out.AddF(spec.col+"_"+spec.fn, cols[j])
	}
	return out, nil
}

func opBroadcastAggregates(_ *opCtx, in []Value, p params) (Value, error) {
	g, ok := in[0].(*Grouped)
	if !ok {
		return nil, fmt.Errorf("broadcast_aggregates: expected grouped, got %v", in[0].Kind())
	}
	specs, err := parseAggs(p)
	if err != nil {
		return nil, err
	}
	tsCol := g.F.Col("ts")
	f := g.F
	out := NewFrame(f.N)
	out.sameRows(f)
	// Carry existing numeric columns forward, then append group context.
	for _, c := range f.Cols {
		if c.IsNumeric() {
			out.AddF(c.Name, c.F)
		}
	}
	for _, spec := range specs {
		c := f.Col(spec.col)
		if c == nil {
			return nil, fmt.Errorf("broadcast_aggregates: no column %q", spec.col)
		}
		perGroup := make([]float64, len(g.Groups))
		var scratch []float64
		for gi, rows := range g.Groups {
			if cap(scratch) < len(rows) {
				scratch = make([]float64, len(rows))
			}
			v, err := aggregate(c, rows, spec.fn, tsCol, scratch[:0])
			if err != nil {
				return nil, err
			}
			perGroup[gi] = v
		}
		col := make([]float64, f.N)
		for r := 0; r < f.N; r++ {
			if gi := g.GroupOf[r]; gi >= 0 {
				col[r] = perGroup[gi]
			}
		}
		out.AddF("grp_"+spec.col+"_"+spec.fn, col)
	}
	return out, nil
}

func majorityLabel(f *Frame, rows []int) (int, string) {
	if f.Labels == nil {
		return 0, ""
	}
	pos := 0
	attack := ""
	for _, r := range rows {
		if f.Labels[r] != 0 {
			pos++
			if attack == "" && f.Attacks != nil {
				attack = f.Attacks[r]
			}
		}
	}
	if pos*2 >= len(rows) && pos > 0 {
		return 1, attack
	}
	return 0, ""
}

func opSelect(_ *opCtx, in []Value, p params) (Value, error) {
	f, err := asFrame(in[0])
	if err != nil {
		return nil, err
	}
	cols := p.strList("cols")
	if len(cols) == 0 {
		return nil, fmt.Errorf("select: missing cols param")
	}
	return f.Select(cols)
}

func opFilter(_ *opCtx, in []Value, p params) (Value, error) {
	f, err := asFrame(in[0])
	if err != nil {
		return nil, err
	}
	colName := p.str("col", "")
	c := f.Col(colName)
	if c == nil {
		return nil, fmt.Errorf("filter: no column %q", colName)
	}
	cmp := p.str("op", "==")
	keep := make([]bool, f.N)
	if c.IsNumeric() {
		val := p.f64("value", 0)
		for i, v := range c.F {
			switch cmp {
			case "==":
				keep[i] = v == val
			case "!=":
				keep[i] = v != val
			case ">":
				keep[i] = v > val
			case "<":
				keep[i] = v < val
			case ">=":
				keep[i] = v >= val
			case "<=":
				keep[i] = v <= val
			default:
				return nil, fmt.Errorf("filter: unknown op %q", cmp)
			}
		}
	} else {
		val := p.str("value", "")
		for i, v := range c.S {
			switch cmp {
			case "==":
				keep[i] = v == val
			case "!=":
				keep[i] = v != val
			default:
				return nil, fmt.Errorf("filter: op %q not valid for string column", cmp)
			}
		}
	}
	return f.FilterRows(keep), nil
}

func opConcatCols(_ *opCtx, in []Value, _ params) (Value, error) {
	first, err := asFrame(in[0])
	if err != nil {
		return nil, err
	}
	out := NewFrame(first.N)
	out.sameRows(first)
	seen := map[string]bool{}
	for fi, v := range in {
		f, err := asFrame(v)
		if err != nil {
			return nil, err
		}
		if f.N != first.N {
			return nil, fmt.Errorf("concat_cols: frame %d has %d rows, want %d", fi, f.N, first.N)
		}
		for _, c := range f.Cols {
			name := c.Name
			for seen[name] {
				name = name + "_"
			}
			seen[name] = true
			if c.IsNumeric() {
				out.AddF(name, c.F)
			} else {
				out.AddS(name, c.S)
			}
		}
	}
	return out, nil
}

func opDropConst(ctx *opCtx, in []Value, _ params) (Value, error) {
	f, err := asFrame(in[0])
	if err != nil {
		return nil, err
	}
	var keep []string
	if ctx.mode == ModeTrain {
		for _, c := range f.Cols {
			if !c.IsNumeric() {
				keep = append(keep, c.Name)
				continue
			}
			first := c.F[0]
			constant := true
			for _, v := range c.F[1:] {
				if v != first {
					constant = false
					break
				}
			}
			if !constant {
				keep = append(keep, c.Name)
			}
		}
		if len(keep) == 0 { // keep at least one column
			keep = []string{f.Cols[0].Name}
		}
		ctx.setState(keep)
	} else {
		var ok bool
		keep, ok = ctx.getState().([]string)
		if !ok {
			return nil, fmt.Errorf("drop_const: not fitted (test before train)")
		}
	}
	return f.Select(keep)
}

// scalerState holds a fitted scaler with the column layout it saw.
type scalerState struct {
	scaler mlkit.Transformer
	cols   []string
}

// newScaler builds the scaler selected by the op's "kind" param.
func newScaler(p params) (mlkit.Transformer, error) {
	switch kind := p.str("kind", "zscore"); kind {
	case "zscore":
		return &mlkit.StandardScaler{}, nil
	case "minmax":
		return &mlkit.MinMaxScaler{}, nil
	default:
		return nil, fmt.Errorf("normalize: unknown kind %q", kind)
	}
}

func opNormalize(ctx *opCtx, in []Value, p params) (Value, error) {
	f, err := asFrame(in[0])
	if err != nil {
		return nil, err
	}
	var st *scalerState
	if ctx.mode == ModeTrain {
		sc, err := newScaler(p)
		if err != nil {
			return nil, err
		}
		st = &scalerState{scaler: sc, cols: numericNames(f)}
		if len(st.cols) == 0 {
			return f, nil
		}
		sel, err := f.Select(st.cols)
		if err != nil {
			return nil, err
		}
		if err := sc.Fit(sel.Matrix()); err != nil {
			return nil, err
		}
		ctx.setState(st)
	} else {
		var ok bool
		st, ok = ctx.getState().(*scalerState)
		if !ok {
			return nil, fmt.Errorf("normalize: not fitted (test before train)")
		}
	}
	sel, err := f.Select(st.cols)
	if err != nil {
		return nil, err
	}
	scaled := st.scaler.Transform(sel.Matrix())
	out := NewFrame(f.N)
	out.sameRows(f)
	for j, name := range st.cols {
		col := make([]float64, f.N)
		for i := range col {
			col[i] = scaled[i][j]
		}
		out.AddF(name, col)
	}
	// Preserve string columns (keys for later grouping).
	for _, c := range f.Cols {
		if !c.IsNumeric() {
			out.AddS(c.Name, c.S)
		}
	}
	return out, nil
}

func numericNames(f *Frame) []string {
	var out []string
	for _, c := range f.Cols {
		if c.IsNumeric() {
			out = append(out, c.Name)
		}
	}
	return out
}

func opDropCorrelated(ctx *opCtx, in []Value, p params) (Value, error) {
	f, err := asFrame(in[0])
	if err != nil {
		return nil, err
	}
	var keep []string
	if ctx.mode == ModeTrain {
		nums := numericNames(f)
		sel, err := f.Select(nums)
		if err != nil {
			return nil, err
		}
		filt := &mlkit.CorrelationFilter{Threshold: p.f64("threshold", 0.95)}
		if err := filt.Fit(sel.Matrix()); err != nil {
			return nil, err
		}
		for _, j := range filt.Keep {
			keep = append(keep, nums[j])
		}
		ctx.setState(keep)
	} else {
		var ok bool
		keep, ok = ctx.getState().([]string)
		if !ok {
			return nil, fmt.Errorf("drop_correlated: not fitted (test before train)")
		}
	}
	return f.Select(keep)
}

func opSample(ctx *opCtx, in []Value, p params) (Value, error) {
	f, err := asFrame(in[0])
	if err != nil {
		return nil, err
	}
	n := p.i("n", 0)
	if frac := p.f64("frac", 0); frac > 0 {
		n = int(float64(f.N) * frac)
	}
	if n <= 0 || n >= f.N {
		return f, nil
	}
	rng := mlkit.NewRNG(ctx.seed + 17)
	perm := rng.Perm(f.N)
	idx := append([]int(nil), perm[:n]...)
	// Keep time order stable for downstream ops.
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && idx[j] < idx[j-1]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	return f.TakeRows(idx), nil
}
