package train

import (
	"fmt"
	"math"
	"math/rand"

	"nocbt/internal/dnn"
	"nocbt/internal/tensor"
)

// SoftmaxCrossEntropy computes the scalar loss −log softmax(logits)[label]
// and the gradient of the loss w.r.t. the logits.
func SoftmaxCrossEntropy(logits *tensor.Tensor, label int) (float64, *tensor.Tensor) {
	n := logits.Size()
	if label < 0 || label >= n {
		panic(fmt.Sprintf("train: label %d outside [0,%d)", label, n))
	}
	// Numerically stable softmax.
	maxLogit := logits.Data[0]
	for _, v := range logits.Data {
		if v > maxLogit {
			maxLogit = v
		}
	}
	var sum float64
	exps := make([]float64, n)
	for i, v := range logits.Data {
		exps[i] = math.Exp(float64(v - maxLogit))
		sum += exps[i]
	}
	grad := tensor.New(n)
	for i := range exps {
		p := exps[i] / sum
		grad.Data[i] = float32(p)
	}
	loss := -math.Log(exps[label] / sum)
	grad.Data[label] -= 1
	return loss, grad
}

// Config holds SGD hyperparameters. Zero values are replaced by defaults in
// NewTrainer.
type Config struct {
	// LR is the learning rate (default 0.01).
	LR float32
	// Momentum is the classical momentum coefficient (default 0.9).
	Momentum float32
	// Epochs is the number of passes over the dataset (default 3).
	Epochs int
	// WeightDecay is the L2 regularization coefficient (default 0).
	// Weight decay is what concentrates converged weights near zero — the
	// distribution property behind the paper's large trained-fixed-8 BT
	// reduction.
	WeightDecay float32
}

func (c Config) withDefaults() Config {
	if c.LR == 0 {
		c.LR = 0.01
	}
	if c.Momentum == 0 {
		c.Momentum = 0.9
	}
	if c.Epochs == 0 {
		c.Epochs = 3
	}
	return c
}

// Trainer runs SGD with momentum over a model.
type Trainer struct {
	cfg      Config
	velocity []*tensor.Tensor
	model    *dnn.Model
}

// NewTrainer prepares a trainer for the model.
func NewTrainer(m *dnn.Model, cfg Config) *Trainer {
	cfg = cfg.withDefaults()
	params := m.Params()
	vel := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		vel[i] = tensor.New(p.Shape()...)
	}
	return &Trainer{cfg: cfg, velocity: vel, model: m}
}

// EpochStats summarizes one training epoch.
type EpochStats struct {
	// MeanLoss is the average per-sample cross-entropy.
	MeanLoss float64
	// Accuracy is the fraction of samples classified correctly during the
	// epoch (before each update).
	Accuracy float64
}

// Step runs a single-sample SGD update and returns the sample loss and
// whether the pre-update prediction was correct.
func (t *Trainer) Step(s Sample) (float64, bool) {
	m := t.model
	out := m.Forward(s.Image)
	loss, grad := SoftmaxCrossEntropy(out, s.Label)
	correct := Argmax(out.Data) == s.Label
	m.ZeroGrads()
	m.Backward(grad)

	grads := m.Grads()
	for i, p := range m.Params() {
		t.update(p.Data, t.velocity[i].Data, grads[i].Data)
	}
	return loss, correct
}

// update applies one momentum-SGD step to a parameter in a single pass.
// Each element sees the same float32 operations, in the same order, as the
// tensor-level sequence v.Scale(m); v.AddScaled(g, -lr);
// v.AddScaled(p, -lr·wd) when wd ≠ 0; p.AddScaled(v, 1).
func (t *Trainer) update(p, v, g []float32) {
	if len(v) != len(p) || len(g) != len(p) {
		panic(fmt.Sprintf("train: update sizes p=%d v=%d g=%d", len(p), len(v), len(g)))
	}
	mom, lr := t.cfg.Momentum, -t.cfg.LR
	decay, decayed := -t.cfg.LR*t.cfg.WeightDecay, t.cfg.WeightDecay != 0
	for j, pj := range p {
		// The conversion rounds v·m before the next add, as the separate
		// Scale pass did; without it the compiler may fuse the two.
		vj := float32(v[j] * mom)
		vj += lr * g[j]
		if decayed {
			vj += decay * pj
		}
		v[j] = vj
		p[j] = pj + vj
	}
}

// Epoch shuffles the dataset and runs one pass of single-sample SGD.
func (t *Trainer) Epoch(ds *Dataset, rng *rand.Rand) EpochStats {
	ds.Shuffle(rng)
	var lossSum float64
	correct := 0
	for _, s := range ds.Samples {
		loss, ok := t.Step(s)
		lossSum += loss
		if ok {
			correct++
		}
	}
	n := float64(ds.Len())
	return EpochStats{MeanLoss: lossSum / n, Accuracy: float64(correct) / n}
}

// Run trains for the configured number of epochs and returns per-epoch stats.
func (t *Trainer) Run(ds *Dataset, rng *rand.Rand) []EpochStats {
	stats := make([]EpochStats, 0, t.cfg.Epochs)
	for e := 0; e < t.cfg.Epochs; e++ {
		stats = append(stats, t.Epoch(ds, rng))
	}
	return stats
}

// Evaluate returns the model's accuracy over the dataset without updating
// weights.
func Evaluate(m *dnn.Model, ds *Dataset) float64 {
	correct := 0
	for _, s := range ds.Samples {
		out := m.Forward(s.Image)
		if Argmax(out.Data) == s.Label {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len())
}

// Argmax returns the index of the largest element.
func Argmax(vals []float32) int {
	best := 0
	for i, v := range vals {
		if v > vals[best] {
			best = i
		}
	}
	return best
}

// TrainedLeNet builds a LeNet and trains it on a synthetic digit dataset,
// returning the trained model. The defaults (300 samples, 3 epochs) are
// tuned to converge far enough that the weight distribution shows the
// concentrated-near-zero shape of trained networks while staying fast
// enough for benchmarks.
func TrainedLeNet(seed int64, samples int, cfg Config) *dnn.Model {
	if samples == 0 {
		samples = 300
	}
	rng := rand.New(rand.NewSource(seed))
	m := dnn.LeNet(rng)
	ds := SyntheticDigits(samples, m.InShape, rng)
	NewTrainer(m, cfg).Run(ds, rng)
	return m
}

// TrainedDarkNet builds the DarkNet-like model and briefly trains it on the
// 3-channel synthetic digit dataset.
func TrainedDarkNet(seed int64, samples int, cfg Config) *dnn.Model {
	if samples == 0 {
		samples = 100
	}
	rng := rand.New(rand.NewSource(seed))
	m := dnn.DarkNetTiny(rng)
	ds := SyntheticDigits(samples, m.InShape, rng)
	NewTrainer(m, cfg).Run(ds, rng)
	return m
}
