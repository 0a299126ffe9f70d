package core

import (
	"fmt"
	"math"
	"sort"

	"lumen/internal/mlkit"
)

func init() {
	register("onehot", "expand a categorical column into 0/1 indicator columns (vocabulary fixed at training time)",
		opSig{in: []Kind{KindFrame}, out: KindFrame},
		opTraits{class: classFitted}, opOneHot)
	register("derive", "append a derived column: ratio, product, diff, log1p or abs of existing columns",
		opSig{in: []Kind{KindFrame}, out: KindFrame},
		opTraits{class: classRowLocal, cacheable: true}, opDerive)
	register("clip", "winsorize numeric columns to a quantile range fitted on training data",
		opSig{in: []Kind{KindFrame}, out: KindFrame},
		opTraits{class: classFitted}, opClip)
	register("log_scale", "replace numeric columns with log1p(|x|)*sign(x), compressing heavy-tailed features",
		opSig{in: []Kind{KindFrame}, out: KindFrame},
		opTraits{class: classRowLocal, cacheable: true}, opLogScale)
	register("balance", "rebalance class sizes by downsampling the majority class (training runs only; test frames pass through)",
		opSig{in: []Kind{KindFrame}, out: KindFrame},
		opTraits{class: classFitted}, opBalance)
	register("pca_transform", "project numeric columns onto principal components fitted on training data",
		opSig{in: []Kind{KindFrame}, out: KindFrame},
		opTraits{class: classFitted}, opPCATransform)
	register("head", "keep only the first n rows",
		opSig{in: []Kind{KindFrame}, out: KindFrame},
		opTraits{class: classBarrier, cacheable: true}, opHead)
}

func opOneHot(ctx *opCtx, in []Value, p params) (Value, error) {
	f, err := asFrame(in[0])
	if err != nil {
		return nil, err
	}
	colName := p.str("col", "")
	c := f.Col(colName)
	if c == nil || c.IsNumeric() {
		return nil, fmt.Errorf("onehot: need a string column, %q is not one", colName)
	}
	maxCats := p.i("max_categories", 16)

	var vocab []string
	if ctx.mode == ModeTrain {
		counts := map[string]int{}
		for _, v := range c.S {
			counts[v]++
		}
		keys := make([]string, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool {
			if counts[keys[a]] != counts[keys[b]] {
				return counts[keys[a]] > counts[keys[b]]
			}
			return keys[a] < keys[b]
		})
		if len(keys) > maxCats {
			keys = keys[:maxCats]
		}
		sort.Strings(keys)
		vocab = keys
		ctx.setState(vocab)
	} else {
		var ok bool
		vocab, ok = ctx.getState().([]string)
		if !ok {
			return nil, fmt.Errorf("onehot: not fitted (test before train)")
		}
	}

	out := NewFrame(f.N)
	out.sameRows(f)
	for _, col := range f.Cols {
		if col.Name == colName {
			continue // replaced by indicators
		}
		if col.IsNumeric() {
			out.AddF(col.Name, col.F)
		} else {
			out.AddS(col.Name, col.S)
		}
	}
	for _, cat := range vocab {
		ind := make([]float64, f.N)
		for i, v := range c.S {
			if v == cat {
				ind[i] = 1
			}
		}
		out.AddF(colName+"="+cat, ind)
	}
	return out, nil
}

func opDerive(_ *opCtx, in []Value, p params) (Value, error) {
	f, err := asFrame(in[0])
	if err != nil {
		return nil, err
	}
	fn := p.str("fn", "")
	aName, bName := p.str("a", ""), p.str("b", "")
	outName := p.str("out", "")
	if outName == "" {
		outName = fn + "_" + aName
		if bName != "" {
			outName += "_" + bName
		}
	}
	a := f.Col(aName)
	if a == nil || !a.IsNumeric() {
		return nil, fmt.Errorf("derive: need numeric column a, %q is not one", aName)
	}
	var b *Column
	switch fn {
	case "ratio", "product", "diff":
		b = f.Col(bName)
		if b == nil || !b.IsNumeric() {
			return nil, fmt.Errorf("derive: fn %q needs numeric column b", fn)
		}
	case "log1p", "abs":
	default:
		return nil, fmt.Errorf("derive: unknown fn %q (ratio, product, diff, log1p, abs)", fn)
	}
	vals := make([]float64, f.N)
	for i := 0; i < f.N; i++ {
		switch fn {
		case "ratio":
			if b.F[i] != 0 {
				vals[i] = a.F[i] / b.F[i]
			} else {
				vals[i] = a.F[i]
			}
		case "product":
			vals[i] = a.F[i] * b.F[i]
		case "diff":
			vals[i] = a.F[i] - b.F[i]
		case "log1p":
			vals[i] = math.Log1p(math.Abs(a.F[i]))
		case "abs":
			vals[i] = math.Abs(a.F[i])
		}
	}
	out := NewFrame(f.N)
	out.sameRows(f)
	for _, col := range f.Cols {
		if col.IsNumeric() {
			out.AddF(col.Name, col.F)
		} else {
			out.AddS(col.Name, col.S)
		}
	}
	out.AddF(outName, vals)
	return out, nil
}

// clipState holds per-column winsorization bounds.
type clipState struct {
	cols []string
	lo   []float64
	hi   []float64
}

func opClip(ctx *opCtx, in []Value, p params) (Value, error) {
	f, err := asFrame(in[0])
	if err != nil {
		return nil, err
	}
	var st *clipState
	if ctx.mode == ModeTrain {
		q := p.f64("quantile", 0.99)
		st = &clipState{cols: numericNames(f)}
		// One sort per column serves both quantiles; the scratch buffer
		// is reused across columns (all have f.N values).
		var scratch []float64
		for _, name := range st.cols {
			c := f.Col(name)
			scratch = mlkit.SortedCopy(c.F, scratch)
			st.lo = append(st.lo, mlkit.QuantileSorted(scratch, 1-q))
			st.hi = append(st.hi, mlkit.QuantileSorted(scratch, q))
		}
		ctx.setState(st)
	} else {
		var ok bool
		st, ok = ctx.getState().(*clipState)
		if !ok {
			return nil, fmt.Errorf("clip: not fitted (test before train)")
		}
	}
	out := NewFrame(f.N)
	out.sameRows(f)
	for j, name := range st.cols {
		c := f.Col(name)
		if c == nil {
			return nil, fmt.Errorf("clip: column %q missing at test time", name)
		}
		vals := make([]float64, f.N)
		for i, v := range c.F {
			if v < st.lo[j] {
				v = st.lo[j]
			} else if v > st.hi[j] {
				v = st.hi[j]
			}
			vals[i] = v
		}
		out.AddF(name, vals)
	}
	for _, c := range f.Cols {
		if !c.IsNumeric() {
			out.AddS(c.Name, c.S)
		}
	}
	return out, nil
}

func opLogScale(_ *opCtx, in []Value, _ params) (Value, error) {
	f, err := asFrame(in[0])
	if err != nil {
		return nil, err
	}
	out := NewFrame(f.N)
	out.sameRows(f)
	for _, c := range f.Cols {
		if !c.IsNumeric() {
			out.AddS(c.Name, c.S)
			continue
		}
		vals := make([]float64, f.N)
		for i, v := range c.F {
			lv := math.Log1p(math.Abs(v))
			if v < 0 {
				lv = -lv
			}
			vals[i] = lv
		}
		out.AddF(c.Name, vals)
	}
	return out, nil
}

func opBalance(ctx *opCtx, in []Value, p params) (Value, error) {
	f, err := asFrame(in[0])
	if err != nil {
		return nil, err
	}
	if ctx.mode != ModeTrain {
		return f, nil // never drop test rows
	}
	if f.Labels == nil {
		return nil, fmt.Errorf("balance: frame has no labels")
	}
	// ratio caps majority/minority size; 0 means 1 (fully balanced).
	ratio := p.f64("ratio", 1)
	if ratio < 1 {
		ratio = 1
	}
	var pos, neg []int
	for i, y := range f.Labels {
		if y != 0 {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	minority, majority := pos, neg
	if len(pos) > len(neg) {
		minority, majority = neg, pos
	}
	if len(minority) == 0 {
		return f, nil
	}
	limit := int(float64(len(minority)) * ratio)
	if limit >= len(majority) {
		return f, nil
	}
	rng := mlkit.NewRNG(ctx.seed + 23)
	perm := rng.Perm(len(majority))
	keep := append([]int(nil), minority...)
	for _, j := range perm[:limit] {
		keep = append(keep, majority[j])
	}
	sort.Ints(keep)
	return f.TakeRows(keep), nil
}

// pcaState holds the fitted projection.
type pcaState struct {
	p    *mlkit.PCA
	cols []string
}

func opPCATransform(ctx *opCtx, in []Value, p params) (Value, error) {
	f, err := asFrame(in[0])
	if err != nil {
		return nil, err
	}
	var st *pcaState
	if ctx.mode == ModeTrain {
		st = &pcaState{p: &mlkit.PCA{K: p.i("k", 0)}, cols: numericNames(f)}
		sel, err := f.Select(st.cols)
		if err != nil {
			return nil, err
		}
		if err := st.p.Fit(sel.Matrix()); err != nil {
			return nil, err
		}
		ctx.setState(st)
	} else {
		var ok bool
		st, ok = ctx.getState().(*pcaState)
		if !ok {
			return nil, fmt.Errorf("pca_transform: not fitted (test before train)")
		}
	}
	sel, err := f.Select(st.cols)
	if err != nil {
		return nil, err
	}
	proj := st.p.Transform(sel.Matrix())
	out := NewFrame(f.N)
	out.sameRows(f)
	for c := 0; c < st.p.Components(); c++ {
		vals := make([]float64, f.N)
		for i := range vals {
			vals[i] = proj[i][c]
		}
		out.AddF(fmt.Sprintf("pc%d", c), vals)
	}
	return out, nil
}

func opHead(_ *opCtx, in []Value, p params) (Value, error) {
	f, err := asFrame(in[0])
	if err != nil {
		return nil, err
	}
	n := p.i("n", 0)
	if n <= 0 || n >= f.N {
		return f, nil
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return f.TakeRows(idx), nil
}
