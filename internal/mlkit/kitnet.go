package mlkit

import (
	"math"
	"sort"
	"sync"

	"lumen/internal/mlkit/linalg"
)

// KitNET is the anomaly detector at the heart of Kitsune (Mirsky et al.,
// NDSS'18; algorithm A06 in Lumen): an ensemble of small autoencoders, each
// responsible for a cluster of correlated features, whose reconstruction
// RMSEs feed an output autoencoder. The feature map is learned by
// agglomerative clustering on feature-correlation distance, capped at
// MaxAESize inputs per autoencoder.
type KitNET struct {
	// MaxAESize caps features per ensemble autoencoder; 0 means 10.
	MaxAESize int
	// GracePeriod is the number of leading rows used only to learn the
	// feature map and normalization before training begins; 0 means
	// min(len(X)/10, 1000) at Fit.
	GracePeriod int
	// Epochs over the training data for batch Fit; 0 means 10.
	Epochs int
	// LR for all autoencoders; 0 means 0.1.
	LR float64
	// Seed drives initialization.
	Seed int64

	clusters [][]int
	ensemble []*Autoencoder
	output   *Autoencoder
	norm     *MinMaxScaler
	flat     *kitnetFlat
	obs      FitObserver
}

// kitnetFlat is a built KitNET laid out for the scoring kernel: every
// cluster's feature indices in one slice and every member's weights in
// one block. The members' MLPs hold views of that block, so training
// updates it in place and the layout never needs rebuilding.
type kitnetFlat struct {
	feats   []int32   // feature indices, cluster after cluster
	members []flatAE  // one per cluster, in cluster order
	output  flatAE    // reads the members' clamped RMSEs
	weights []float64 // W1, b1, W2, b2 of each member, then of the output
	scratch sync.Pool // *kitnetScratch, one per row range being scored
}

// flatAE is one two-layer autoencoder of the layout: in inputs, a hid-wide
// bottleneck, in outputs, sigmoid on both layers.
type flatAE struct {
	in, hid        int
	w1, b1, w2, b2 []float64 // hid×in, hid, in×hid, in; views of kitnetFlat.weights
}

// kitnetBlock is how many rows the kernel takes through one member at a
// time: enough that each layer's sigmoids run as one long loop of
// independent math.Exp calls the processor can overlap, few enough that
// the scratch stays in L1.
const kitnetBlock = 32

// kitnetScratch is what scoring kitnetBlock rows needs, each buffer one
// row-major block: a member's gathered inputs x, bottlenecks h and
// reconstructions y, and the rows' ensemble RMSEs tail (which are the
// output autoencoder's inputs).
type kitnetScratch struct{ x, h, y, tail []float64 }

// SetFitObserver attaches a per-epoch progress observer; the reported
// loss is the epoch's mean output-autoencoder RMSE.
func (k *KitNET) SetFitObserver(o FitObserver) { k.obs = o }

// Fit learns the feature map from (a prefix of) X, then trains the ensemble
// and output layers on min-max–scaled data.
func (k *KitNET) Fit(X [][]float64) error {
	if _, err := checkXY(X, nil); err != nil {
		return err
	}
	grace := k.GracePeriod
	if grace == 0 {
		grace = len(X) / 10
		if grace > 1000 {
			grace = 1000
		}
	}
	if grace < 2 {
		grace = 2
	}
	if grace > len(X) {
		grace = len(X)
	}
	k.norm = &MinMaxScaler{}
	if err := k.norm.Fit(X); err != nil {
		return err
	}
	k.buildEnsemble(X[:grace])
	epochs := k.Epochs
	if epochs == 0 {
		epochs = 10
	}
	for e := 0; e < epochs; e++ {
		rmseSum := k.trainRows(X)
		if k.obs != nil {
			k.obs.FitEpoch("kitnet", e, rmseSum/float64(len(X)))
		}
	}
	return nil
}

// buildEnsemble learns the feature map from the grace rows, creates one
// autoencoder per cluster plus the output autoencoder, and moves their
// freshly initialized weights into the flat layout.
func (k *KitNET) buildEnsemble(grace [][]float64) {
	k.clusters = clusterFeatures(grace, k.maxAE())
	lr := k.LR
	if lr == 0 {
		lr = 0.1
	}
	newAE := func(in int, seed int64) *Autoencoder {
		b := in * 3 / 4
		if b < 1 {
			b = 1
		}
		a := &Autoencoder{Hidden: []int{b}, LR: lr, Seed: seed}
		a.ensureNet(in)
		return a
	}
	f := &kitnetFlat{}
	wide := len(k.clusters) // widest input of any member or the output
	k.ensemble = make([]*Autoencoder, len(k.clusters))
	k.output = newAE(len(k.clusters), k.Seed+7919)
	size := k.output.net.paramCount()
	for c, feats := range k.clusters {
		k.ensemble[c] = newAE(len(feats), k.Seed+int64(c))
		size += k.ensemble[c].net.paramCount()
		for _, j := range feats {
			f.feats = append(f.feats, int32(j))
		}
		wide = max(wide, len(feats))
	}
	f.weights = make([]float64, size)
	rest := f.weights
	f.members = make([]flatAE, len(k.ensemble))
	for c, a := range k.ensemble {
		f.members[c], rest = flattenAE(a.net, rest)
	}
	f.output, _ = flattenAE(k.output.net, rest)
	n, tails := kitnetBlock*wide, kitnetBlock*len(f.members)
	f.scratch.New = func() any {
		buf := make([]float64, 3*n+tails)
		return &kitnetScratch{x: buf[:n], h: buf[n : 2*n], y: buf[2*n : 3*n], tail: buf[3*n:]}
	}
	k.flat = f
}

// flattenAE moves a two-layer network's weights and biases to the front
// of block, leaves the network training on those views, and returns the
// same views as a flatAE plus the unused rest of block.
func flattenAE(net *MLP, block []float64) (flatAE, []float64) {
	take := func(src []float64) []float64 {
		n := copy(block, src)
		view := block[:n:n]
		block = block[n:]
		return view
	}
	for l, w := range net.weights {
		w.Data = take(w.Data)
		net.biases[l] = take(net.biases[l])
	}
	return flatAE{
		in: net.Sizes[0], hid: net.Sizes[1],
		w1: net.weights[0].Data, b1: net.biases[0],
		w2: net.weights[1].Data, b2: net.biases[1],
	}, block
}

// gather min-max scales one cluster's features of each row into the
// row-major block x.
func gather(norm *MinMaxScaler, rows [][]float64, feats []int32, x []float64) {
	for r, row := range rows {
		xr := x[r*len(feats) : (r+1)*len(feats)]
		for i, j := range feats {
			xr[i] = norm.scale(int(j), row[j])
		}
	}
}

// trainRows takes every row of X, in order, through one online step of
// each ensemble member and then of the output autoencoder — Kitsune trains
// packet by packet, and the detectors that threshold on training-score
// distributions depend on that convergence behaviour. It returns the
// summed pre-update output RMSE.
func (k *KitNET) trainRows(X [][]float64) float64 {
	f := k.flat
	s := f.scratch.Get().(*kitnetScratch)
	defer f.scratch.Put(s)
	tail := s.tail[:len(f.members)]
	var rmseSum float64
	for i := range X {
		feats := f.feats
		for c, a := range k.ensemble {
			n := f.members[c].in
			gather(k.norm, X[i:i+1], feats[:n], s.x)
			tail[c] = clamp01(a.TrainOne(s.x[:n]))
			feats = feats[n:]
		}
		rmseSum += k.output.TrainOne(tail)
	}
	return rmseSum
}

func (k *KitNET) maxAE() int {
	if k.MaxAESize == 0 {
		return 10
	}
	return k.MaxAESize
}

// Score writes the output autoencoder's RMSE per row (higher = more
// anomalous). One row-parallel pass: each row range borrows a scratch and
// walks its rows a block at a time — per member, scale and gather the
// block's features, run the member, clamp its RMSEs into the block's
// tails — then scores the tails with the output autoencoder. Nothing is
// shared between rows, so scores are bit-identical for any worker count.
func (k *KitNET) Score(X [][]float64, dst []float64) []float64 {
	out := outBuf(dst, len(X))
	f := k.flat
	linalg.ParallelRows(len(X), func(lo, hi int) {
		s := f.scratch.Get().(*kitnetScratch)
		defer f.scratch.Put(s)
		nc := len(f.members)
		for ; lo < hi; lo += kitnetBlock {
			rows := X[lo:min(lo+kitnetBlock, hi)]
			tails := s.tail[:len(rows)*nc]
			feats := f.feats
			for c := range f.members {
				m := &f.members[c]
				x := s.x[:len(rows)*m.in]
				gather(k.norm, rows, feats[:m.in], x)
				m.rmse(x, s, tails[c:], nc)
				feats = feats[m.in:]
			}
			for i, v := range tails {
				tails[i] = clamp01(v)
			}
			f.output.rmse(tails, s, out[lo:], 1)
		}
	})
	return out
}

// rmse reconstructs the rows of the row-major block x through the two
// sigmoid layers, with s.h and s.y as scratch, and writes row r's
// reconstruction RMSE to out[r*stride]. Every sum runs in the order
// MLP.forwardBatch and Autoencoder.Score use (a four-way Dot, then the
// bias, then the activation; squared errors left to right), so the result
// equals theirs bit for bit.
func (m *flatAE) rmse(x []float64, s *kitnetScratch, out []float64, stride int) {
	n := len(x) / m.in
	h, y := s.h[:n*m.hid], s.y[:n*m.in]
	sigmoidLayer(x, m.in, m.w1, m.b1, h)
	sigmoidLayer(h, m.hid, m.w2, m.b2, y)
	for r := 0; r < n; r++ {
		var sq float64
		for j, v := range x[r*m.in : (r+1)*m.in] {
			e := v - y[r*m.in+j]
			sq += e * e
		}
		out[r*stride] = math.Sqrt(sq / float64(m.in))
	}
}

// sigmoidLayer computes dst = sigmoid(src·wᵀ + b) over row-major blocks:
// src has rows of the given width, w one such row per output unit. The
// sigmoids run as one loop over the whole block, where consecutive
// math.Exp calls are independent and overlap.
func sigmoidLayer(src []float64, width int, w, b, dst []float64) {
	units := len(b)
	for r := 0; r*width < len(src); r++ {
		in := src[r*width : (r+1)*width]
		z := dst[r*units : (r+1)*units]
		for o := range z {
			z[o] = linalg.Dot(in, w[o*width:(o+1)*width]) + b[o]
		}
	}
	sigmoidVec(dst)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// clusterFeatures groups feature indices by complete-linkage agglomerative
// clustering on correlation distance 1-|r|, splitting any cluster larger
// than maxSize.
func clusterFeatures(X [][]float64, maxSize int) [][]int {
	d := len(X[0])
	cols := make([][]float64, d)
	for j := 0; j < d; j++ {
		col := make([]float64, len(X))
		for i, row := range X {
			col[i] = row[j]
		}
		cols[j] = col
	}
	dist := make([][]float64, d)
	for i := range dist {
		dist[i] = make([]float64, d)
		for j := range dist[i] {
			if i == j {
				continue
			}
			dist[i][j] = 1 - math.Abs(PearsonCorr(cols[i], cols[j]))
		}
	}
	clusters := make([][]int, d)
	for j := 0; j < d; j++ {
		clusters[j] = []int{j}
	}
	// Complete-linkage merge until no pair both fits maxSize and has
	// distance < 1 (i.e. some correlation).
	for {
		bestI, bestJ, bestD := -1, -1, math.Inf(1)
		for i := 0; i < len(clusters); i++ {
			for j := i + 1; j < len(clusters); j++ {
				if len(clusters[i])+len(clusters[j]) > maxSize {
					continue
				}
				var dd float64
				for _, a := range clusters[i] {
					for _, b := range clusters[j] {
						if dist[a][b] > dd {
							dd = dist[a][b]
						}
					}
				}
				if dd < bestD {
					bestI, bestJ, bestD = i, j, dd
				}
			}
		}
		if bestI < 0 || bestD >= 0.999 {
			break
		}
		clusters[bestI] = append(clusters[bestI], clusters[bestJ]...)
		clusters = append(clusters[:bestJ], clusters[bestJ+1:]...)
	}
	for i := range clusters {
		sort.Ints(clusters[i])
	}
	sort.Slice(clusters, func(a, b int) bool { return clusters[a][0] < clusters[b][0] })
	return clusters
}
