package mlkit

import "math"

// Autoencoder is an MLP trained to reconstruct its input; Score reports
// per-row reconstruction RMSE, the classical anomaly criterion used by the
// Nokia detector (A11) and early-detection model (A12). Inputs should be
// scaled into [0,1] (the sigmoid output range).
type Autoencoder struct {
	// Hidden lists the encoder widths down to the bottleneck; the decoder
	// mirrors them. Empty means a single bottleneck of max(1, d*3/4).
	Hidden []int
	// Epochs, LR, Seed configure the underlying MLP.
	Epochs int
	LR     float64
	Seed   int64

	net *MLP
	obs FitObserver
}

// SetFitObserver attaches a per-epoch progress observer; epochs are
// reported under the model name "autoencoder".
func (a *Autoencoder) SetFitObserver(o FitObserver) { a.obs = o }

// sizes builds the mirrored encoder/decoder layer widths for input
// dimension d.
func (a *Autoencoder) sizes(d int) []int {
	hidden := a.Hidden
	if len(hidden) == 0 {
		b := d * 3 / 4
		if b < 1 {
			b = 1
		}
		hidden = []int{b}
	}
	sizes := []int{d}
	sizes = append(sizes, hidden...)
	for i := len(hidden) - 2; i >= 0; i-- {
		sizes = append(sizes, hidden[i])
	}
	return append(sizes, d)
}

// Fit trains the autoencoder to reproduce X.
func (a *Autoencoder) Fit(X [][]float64) error {
	d, err := checkXY(X, nil)
	if err != nil {
		return err
	}
	a.net = &MLP{Sizes: a.sizes(d), Act: ActSigmoid, Epochs: a.Epochs, LR: a.LR, Seed: a.Seed}
	if a.obs != nil {
		a.net.obs = named{o: a.obs, name: "autoencoder"}
	}
	return a.net.FitTargets(X, X)
}

// Score returns per-row reconstruction RMSE, streaming X through the
// network in blocks of rows, one GEMM per layer.
func (a *Autoencoder) Score(X [][]float64) []float64 {
	out := make([]float64, len(X))
	a.net.VisitOutputs(X, func(i int, rec []float64) {
		row := X[i]
		var s float64
		for j := range row {
			e := row[j] - rec[j]
			s += e * e
		}
		out[i] = math.Sqrt(s / float64(len(row)))
	})
	return out
}

// ensureNet lazily builds the network for streaming training entry
// points that may run before Fit.
func (a *Autoencoder) ensureNet(d int) {
	if a.net != nil {
		return
	}
	a.net = &MLP{Sizes: a.sizes(d), Act: ActSigmoid, Epochs: a.Epochs, LR: a.LR, Seed: a.Seed}
	a.net.Init()
}

// TrainOne performs one online training step on a single row and returns
// its pre-update RMSE — Kitsune trains this way, packet by packet.
func (a *Autoencoder) TrainOne(row []float64) float64 {
	a.ensureNet(len(row))
	sq := a.net.TrainStep(row, row)
	return math.Sqrt(sq / float64(len(row)))
}
