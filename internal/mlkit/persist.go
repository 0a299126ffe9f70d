package mlkit

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
)

// Model persistence: the paper's template (Fig. 4) ends with a train op
// whose output is a save_path. SaveModel/LoadModel serialize the fitted
// tree-family models and naive Bayes — the classifiers operators deploy —
// as versioned JSON. (Network-based models retrain in seconds here, so
// persistence targets the deployable family.)

// persistEnvelope wraps a serialized model with its type tag.
type persistEnvelope struct {
	Version int             `json:"version"`
	Type    string          `json:"type"`
	Data    json.RawMessage `json:"data"`
}

// treeDTO serializes a fitted DecisionTree.
type treeDTO struct {
	Nodes   []nodeDTO `json:"nodes"`
	Classes int       `json:"classes"`
}

type nodeDTO struct {
	Feature   int       `json:"f"`
	Threshold threshold `json:"t"`
	Left      int32     `json:"l"`
	Right     int32     `json:"r"`
	Proba     []float64 `json:"p,omitempty"`
}

// threshold is a split threshold in a model file. A fit puts one at
// -Inf when a column's lowest value is -Inf (and at +Inf when a midpoint
// overflows), which a JSON number cannot hold, so infinities are written
// as the strings "+Inf" and "-Inf". Finite thresholds are plain numbers.
type threshold float64

func (t threshold) MarshalJSON() ([]byte, error) {
	if math.IsInf(float64(t), 0) {
		return strconv.AppendQuote(nil, strconv.FormatFloat(float64(t), 'g', -1, 64)), nil
	}
	return json.Marshal(float64(t))
}

func (t *threshold) UnmarshalJSON(b []byte) error {
	if s := string(b); s == `"+Inf"` || s == `"-Inf"` {
		f, err := strconv.ParseFloat(s[1:5], 64)
		*t = threshold(f)
		return err
	}
	return json.Unmarshal(b, (*float64)(t))
}

func (t *DecisionTree) dto() treeDTO {
	ft := &t.flat
	out := treeDTO{Classes: ft.classes, Nodes: make([]nodeDTO, len(ft.nodes))}
	for i, n := range ft.nodes {
		if n.feature < 0 {
			out.Nodes[i] = nodeDTO{Feature: -1, Proba: ft.leaves[n.right:][:ft.classes]}
		} else {
			out.Nodes[i] = nodeDTO{Feature: int(n.feature), Threshold: threshold(n.threshold), Left: int32(i) + 1, Right: n.right}
		}
	}
	return out
}

// fromDTO rebuilds the tree from untrusted input. It walks the node table
// depth-first from node 0, renumbering into the preorder the scoring
// layout needs, and rejects anything scoring could not survive: a child
// index outside the table, a node reached twice (a cycle or a shared
// subtree), a feature below -1, a leaf whose distribution is not one
// value per class, fewer than two classes, no nodes. Nodes the walk never
// reaches are rejected too; MarshalModel writes none.
func (t *DecisionTree) fromDTO(d treeDTO) error {
	if d.Classes < 2 {
		return fmt.Errorf("tree has %d classes, want at least 2", d.Classes)
	}
	if len(d.Nodes) == 0 {
		return fmt.Errorf("tree has no nodes")
	}
	if len(d.Nodes) > math.MaxInt32/d.Classes {
		return fmt.Errorf("tree of %d nodes × %d classes exceeds the 32-bit node index", len(d.Nodes), d.Classes)
	}
	ft := flatTrees{classes: d.Classes, roots: []int32{0}, nodes: make([]flatNode, 0, len(d.Nodes))}
	seen := make([]bool, len(d.Nodes))
	// pending holds, for each internal node already emitted, the table
	// index of its right child and the emitted id to patch once that
	// child's position is known.
	type pending struct{ src, parent int32 }
	stack := []pending{{src: 0, parent: -1}}
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if top.parent >= 0 {
			ft.nodes[top.parent].right = int32(len(ft.nodes))
		}
		for src := top.src; ; {
			if src < 0 || int(src) >= len(d.Nodes) {
				return fmt.Errorf("child index %d outside the %d-node table", src, len(d.Nodes))
			}
			if seen[src] {
				return fmt.Errorf("node %d reached twice", src)
			}
			seen[src] = true
			n := &d.Nodes[src]
			if n.Feature == -1 {
				if len(n.Proba) != d.Classes {
					return fmt.Errorf("leaf %d has %d class values, want %d", src, len(n.Proba), d.Classes)
				}
				ft.nodes = append(ft.nodes, flatNode{feature: -1, right: int32(len(ft.leaves))})
				ft.leaves = append(ft.leaves, n.Proba...)
				break
			}
			if n.Feature < -1 || n.Feature > math.MaxInt32 {
				return fmt.Errorf("node %d has feature %d", src, n.Feature)
			}
			stack = append(stack, pending{src: n.Right, parent: int32(len(ft.nodes))})
			ft.nodes = append(ft.nodes, flatNode{threshold: float64(n.Threshold), feature: int32(n.Feature)})
			src = n.Left
		}
	}
	if len(ft.nodes) != len(d.Nodes) {
		return fmt.Errorf("%d of %d nodes unreachable from the root", len(d.Nodes)-len(ft.nodes), len(d.Nodes))
	}
	t.flat = ft
	return nil
}

// forestDTO serializes a fitted RandomForest.
type forestDTO struct {
	Trees   []treeDTO `json:"trees"`
	Classes int       `json:"classes"`
}

// nbDTO serializes a fitted GaussianNB.
type nbDTO struct {
	Classes  int         `json:"classes"`
	Priors   []float64   `json:"priors"`
	Means    [][]float64 `json:"means"`
	Vars     [][]float64 `json:"vars"`
	Presence []bool      `json:"presence"`
}

// validate rejects a table whose shape scoring would index out of range:
// one prior, mean row, variance row and presence flag per class, every
// row as wide as the first.
func (d nbDTO) validate() error {
	if d.Classes < 2 {
		return fmt.Errorf("%d classes, want at least 2", d.Classes)
	}
	if len(d.Priors) != d.Classes || len(d.Means) != d.Classes || len(d.Vars) != d.Classes || len(d.Presence) != d.Classes {
		return fmt.Errorf("%d priors, %d mean rows, %d variance rows, %d presence flags for %d classes",
			len(d.Priors), len(d.Means), len(d.Vars), len(d.Presence), d.Classes)
	}
	for c := range d.Means {
		if len(d.Means[c]) != len(d.Means[0]) || len(d.Vars[c]) != len(d.Means[0]) {
			return fmt.Errorf("class %d has %d means and %d variances, class 0 has %d features",
				c, len(d.Means[c]), len(d.Vars[c]), len(d.Means[0]))
		}
	}
	return nil
}

// MarshalModel serializes a supported fitted classifier to JSON.
func MarshalModel(c Classifier) ([]byte, error) {
	var env persistEnvelope
	env.Version = 1
	var err error
	switch m := c.(type) {
	case *DecisionTree:
		env.Type = "decision_tree"
		env.Data, err = json.Marshal(m.dto())
	case *RandomForest:
		env.Type = "random_forest"
		dto := forestDTO{Classes: m.classes}
		for _, tr := range m.trees {
			dto.Trees = append(dto.Trees, tr.dto())
		}
		env.Data, err = json.Marshal(dto)
	case *GaussianNB:
		env.Type = "gaussian_nb"
		// Infinities (empty-class priors) are not valid JSON; encode as
		// a very negative sentinel restored on load.
		pri := append([]float64(nil), m.priors...)
		for i, p := range pri {
			if math.IsInf(p, -1) || p < -1e300 {
				pri[i] = -1e300
			}
		}
		env.Data, err = json.Marshal(nbDTO{
			Classes: m.classes, Priors: pri, Means: m.means, Vars: m.vars, Presence: m.presence,
		})
	default:
		return nil, fmt.Errorf("mlkit: MarshalModel: unsupported classifier %T", c)
	}
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(env, "", " ")
}

// UnmarshalModel reconstructs a classifier serialized by MarshalModel.
// The bytes may come from outside the program (lumend's POST /swap), so
// it returns an error — never a model that panics or spins when scored —
// for any envelope whose tables are inconsistent. What it cannot check is
// the width of the rows the model will be shown.
func UnmarshalModel(data []byte) (Classifier, error) {
	var env persistEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("mlkit: UnmarshalModel: %w", err)
	}
	if env.Version != 1 {
		return nil, fmt.Errorf("mlkit: UnmarshalModel: unsupported version %d", env.Version)
	}
	var c Classifier
	var err error
	switch env.Type {
	case "decision_tree":
		c, err = loadTree(env.Data)
	case "random_forest":
		c, err = loadForest(env.Data)
	case "gaussian_nb":
		c, err = loadNB(env.Data)
	default:
		return nil, fmt.Errorf("mlkit: UnmarshalModel: unknown type %q", env.Type)
	}
	if err != nil {
		return nil, fmt.Errorf("mlkit: UnmarshalModel: %s: %w", env.Type, err)
	}
	return c, nil
}

func loadTree(data []byte) (Classifier, error) {
	var dto treeDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		return nil, err
	}
	t := &DecisionTree{}
	if err := t.fromDTO(dto); err != nil {
		return nil, err
	}
	return t, nil
}

func loadForest(data []byte) (Classifier, error) {
	var dto forestDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		return nil, err
	}
	if len(dto.Trees) == 0 {
		return nil, fmt.Errorf("forest has no trees")
	}
	if dto.Classes < 2 {
		return nil, fmt.Errorf("forest has %d classes, want at least 2", dto.Classes)
	}
	f := &RandomForest{NTrees: len(dto.Trees), classes: dto.Classes}
	for i, td := range dto.Trees {
		t := &DecisionTree{}
		if err := t.fromDTO(td); err != nil {
			return nil, fmt.Errorf("tree %d: %w", i, err)
		}
		if td.Classes > dto.Classes {
			return nil, fmt.Errorf("tree %d has %d classes, forest %d", i, td.Classes, dto.Classes)
		}
		f.trees = append(f.trees, t)
	}
	var err error
	if f.flat, err = flattenTrees(f.trees); err != nil {
		return nil, err
	}
	return f, nil
}

func loadNB(data []byte) (Classifier, error) {
	var dto nbDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		return nil, err
	}
	if err := dto.validate(); err != nil {
		return nil, err
	}
	g := &GaussianNB{classes: dto.Classes, priors: dto.Priors, means: dto.Means, vars: dto.Vars, presence: dto.Presence}
	for i, p := range g.priors {
		if p <= -1e300 {
			g.priors[i] = math.Inf(-1)
		}
	}
	return g, nil
}

// SaveModel writes a supported fitted classifier to path.
func SaveModel(path string, c Classifier) error {
	data, err := MarshalModel(c)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadModel reads a classifier written by SaveModel.
func LoadModel(path string) (Classifier, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return UnmarshalModel(data)
}
