package core

import (
	"fmt"

	"lumen/internal/mlkit"
)

func init() {
	register("model", "construct an (unfitted) model spec: random_forest, decision_tree, gaussian_nb, knn, linear_svm, mlp, voting ensembles, automl, kitnet, autoencoder, ocsvm, nystrom_ocsvm, nystrom_gmm, gmm",
		opSig{in: nil, out: KindModel},
		opTraits{class: classRowLocal}, opModel)
	register("train", "fit the model on the frame's features and labels (training runs); predict with the fitted model (test runs)",
		opSig{in: []Kind{KindModel, KindFrame}, out: KindTrained},
		opTraits{class: classFitted, ordered: always}, opTrain)
}

func opModel(_ *opCtx, _ []Value, p params) (Value, error) {
	mt := p.str("model_type", p.str("type", ""))
	if mt == "" {
		return nil, fmt.Errorf("model: missing model_type")
	}
	if _, err := buildClassifier(ModelSpec{Type: mt, Params: map[string]any(p)}, 0); err != nil {
		return nil, err // validate eagerly so Check-time errors are early
	}
	return ModelSpec{Type: mt, Params: map[string]any(p)}, nil
}

// ModelTypes lists the supported model_type values.
func ModelTypes() []string {
	out := make([]string, len(models))
	for i, m := range models {
		out[i] = m.typ
	}
	return out
}

// modelBuilder constructs one model_type from its params. Unsupervised
// detectors come wrapped in mlkit.Thresholded, which fits on the benign
// subset of the training data and calibrates its score threshold from a
// training-score quantile.
type modelBuilder struct {
	typ   string
	build func(p params, seed int64) mlkit.Classifier
	// tunable types accept a "tune" grid.
	tunable bool
}

// thresholded wraps a detector with the quantile its params ask for.
func thresholded(p params, d mlkit.Detector) mlkit.Classifier {
	return &mlkit.Thresholded{Detector: d, Quantile: p.f64("quantile", 0.98)}
}

// models is every model_type, in the order ModelTypes lists them.
var models = []modelBuilder{
	{"random_forest", func(p params, seed int64) mlkit.Classifier {
		return &mlkit.RandomForest{NTrees: p.i("n_trees", 50), MaxDepth: p.i("max_depth", 0), Seed: seed}
	}, true},
	{"decision_tree", func(p params, seed int64) mlkit.Classifier {
		return &mlkit.DecisionTree{MaxDepth: p.i("max_depth", 0), MinSamplesLeaf: p.i("min_samples_leaf", 0), Seed: seed}
	}, true},
	{"gaussian_nb", func(params, int64) mlkit.Classifier { return &mlkit.GaussianNB{} }, false},
	{"knn", func(p params, seed int64) mlkit.Classifier {
		return &mlkit.KNN{K: p.i("k", 5), Seed: seed}
	}, true},
	{"linear_svm", func(p params, seed int64) mlkit.Classifier {
		return &mlkit.LinearSVM{Epochs: p.i("epochs", 10), Seed: seed}
	}, false},
	{"mlp", func(p params, seed int64) mlkit.Classifier {
		return &mlkit.MLPClassifier{Hidden: []int{p.i("hidden", 16)}, Epochs: p.i("epochs", 20), Seed: seed}
	}, false},
	{"ensemble_rf_svm_dt_knn", func(p params, seed int64) mlkit.Classifier { // ML-DDoS (A00)
		return &mlkit.VotingEnsemble{Members: []mlkit.Classifier{
			&mlkit.RandomForest{NTrees: p.i("n_trees", 30), Seed: seed},
			&mlkit.LinearSVM{Seed: seed},
			&mlkit.DecisionTree{Seed: seed},
			&mlkit.KNN{K: p.i("k", 5), Seed: seed},
		}}
	}, false},
	{"ensemble_nb_dt_rf_dnn", func(p params, seed int64) mlkit.Classifier { // Ensemble (Moustafa et al.)
		return &mlkit.VotingEnsemble{Members: []mlkit.Classifier{
			&mlkit.GaussianNB{},
			&mlkit.DecisionTree{Seed: seed},
			&mlkit.RandomForest{NTrees: p.i("n_trees", 30), Seed: seed},
			&mlkit.MLPClassifier{Hidden: []int{16}, Epochs: p.i("epochs", 20), Seed: seed},
		}}
	}, false},
	{"automl", func(_ params, seed int64) mlkit.Classifier { return &mlkit.AutoML{Seed: seed} }, false},
	{"kitnet", func(p params, seed int64) mlkit.Classifier {
		return thresholded(p, &mlkit.KitNET{MaxAESize: p.i("max_ae", 10), Epochs: p.i("epochs", 3), Seed: seed})
	}, false},
	{"autoencoder", func(p params, seed int64) mlkit.Classifier {
		var hidden []int
		if h := p.i("hidden", 0); h > 0 {
			hidden = []int{h}
		}
		return thresholded(p, &mlkit.DetectorPipeline{
			Steps:    []mlkit.Transformer{&mlkit.MinMaxScaler{}},
			Detector: &mlkit.Autoencoder{Hidden: hidden, Epochs: p.i("epochs", 20), Seed: seed},
		})
	}, false},
	{"ocsvm", func(p params, seed int64) mlkit.Classifier {
		return thresholded(p, &mlkit.DetectorPipeline{
			Steps:    []mlkit.Transformer{&mlkit.StandardScaler{}},
			Detector: &mlkit.OneClassSVM{Nu: p.f64("nu", 0.1), Seed: seed},
		})
	}, false},
	{"nystrom_ocsvm", func(p params, seed int64) mlkit.Classifier {
		return thresholded(p, &mlkit.DetectorPipeline{
			Steps:    []mlkit.Transformer{&mlkit.StandardScaler{}, &mlkit.NystromMap{M: p.i("m", 48), Seed: seed}},
			Detector: &mlkit.OneClassSVM{Nu: p.f64("nu", 0.1), Seed: seed},
		})
	}, false},
	{"nystrom_gmm", func(p params, seed int64) mlkit.Classifier {
		return thresholded(p, &mlkit.DetectorPipeline{
			Steps:    []mlkit.Transformer{&mlkit.StandardScaler{}, &mlkit.NystromMap{M: p.i("m", 48), Seed: seed}},
			Detector: &mlkit.GMM{K: p.i("k", 4), Seed: seed},
		})
	}, false},
	{"gmm", func(p params, seed int64) mlkit.Classifier {
		return thresholded(p, &mlkit.DetectorPipeline{
			Steps:    []mlkit.Transformer{&mlkit.StandardScaler{}},
			Detector: &mlkit.GMM{K: p.i("k", 4), Seed: seed},
		})
	}, false},
}

// buildClassifier instantiates the classifier (or thresholded detector)
// described by spec.
//
// A "tune" parameter object — {"param": [values...]} — wraps the model in
// a grid search over those hyperparameters (the §6 automatic tuning
// extension); supported for random_forest, decision_tree and knn. Each
// candidate is the template's params with one grid point laid over them,
// built like an untuned model.
func buildClassifier(spec ModelSpec, seed int64) (mlkit.Classifier, error) {
	p := params(spec.Params)
	var b *modelBuilder
	for i := range models {
		if models[i].typ == spec.Type {
			b = &models[i]
			break
		}
	}
	tune, tuned := p["tune"].(map[string]any)
	if !tuned {
		if b == nil {
			return nil, fmt.Errorf("model: unknown model_type %q (supported: %v)", spec.Type, ModelTypes())
		}
		return b.build(p, seed), nil
	}
	grid := map[string][]float64{}
	for k, v := range tune {
		raw, ok := v.([]any)
		if !ok {
			return nil, fmt.Errorf("model: tune.%s must be a list of numbers", k)
		}
		for _, e := range raw {
			f, ok := e.(float64)
			if !ok {
				return nil, fmt.Errorf("model: tune.%s has a non-numeric entry", k)
			}
			grid[k] = append(grid[k], f)
		}
	}
	if b == nil || !b.tunable {
		return nil, fmt.Errorf("model: tune is not supported for model_type %q", spec.Type)
	}
	return &mlkit.GridSearch{New: func(point map[string]float64) mlkit.Classifier {
		q := make(params, len(p)+len(point))
		for k, v := range p {
			q[k] = v
		}
		for k, v := range point {
			q[k] = v
		}
		return b.build(q, seed)
	}, Grid: grid, Seed: seed}, nil
}

func opTrain(ctx *opCtx, in []Value, _ params) (Value, error) {
	spec, ok := in[0].(ModelSpec)
	if !ok {
		return nil, fmt.Errorf("train: first input must be a model, got %v", in[0].Kind())
	}
	fr, err := asFrame(in[1])
	if err != nil {
		return nil, err
	}
	if ctx.mode == ModeTrain {
		// Fitted models may keep the rows they were fit on: X never comes
		// from the chunk's arena here.
		X := fr.Matrix()
		if fr.Labels == nil {
			return nil, fmt.Errorf("train: frame has no labels")
		}
		clf, err := buildClassifier(spec, ctx.seed)
		if err != nil {
			return nil, err
		}
		if ctx.span != nil || ctx.metrics != nil {
			if of, ok := clf.(mlkit.ObservableFitter); ok {
				of.SetFitObserver(newEpochObserver(ctx.span, ctx.metrics))
			}
		}
		if err := clf.Fit(X, fr.Labels); err != nil {
			return nil, fmt.Errorf("train: %w", err)
		}
		tr := &Trained{Spec: spec, Clf: clf}
		ctx.setState(tr)
		return *tr, nil
	}
	st, ok := ctx.getState().(*Trained)
	if !ok {
		return nil, fmt.Errorf("train: model not fitted (test before train)")
	}
	// Scoring keeps nothing of X, and the verdict metadata aliases the
	// frame's: on a recycling pass both live until the chunk's hook returns.
	X := fr.matrix(ctx.scratch.arena())
	res := &EvalResult{
		Unit:    fr.Unit,
		Truth:   shareRows(fr.Labels),
		Attacks: shareRows(fr.Attacks),
		UnitIdx: shareRows(fr.UnitIdx),
	}
	if len(X) > 0 {
		res.Pred, res.Scores = mlkit.PredictProba(st.Clf, X)
	}
	ctx.result = res
	ctx.stream.lastResult = res
	// Prequential (test-then-train): the chunk was scored by the model as
	// fitted before it arrived; now absorb it as labelled training data,
	// if the model can. Any other model only scores.
	if ctx.stream.online && len(X) > 0 && fr.Labels != nil && mlkit.CanPartialFit(st.Clf) {
		if err := st.Clf.(mlkit.PartialFitter).PartialFit(X, fr.Labels); err != nil {
			return nil, fmt.Errorf("train: prequential partial fit: %w", err)
		}
		if ctx.metrics != nil {
			ctx.metrics.Counter("lumen_partial_fit_rows_total",
				"Rows absorbed by online partial-fit model updates.").Add(uint64(len(X)))
		}
	}
	return *st, nil
}
