package train

import (
	"math"
	"math/rand"
	"testing"

	"nocbt/internal/dnn"
	"nocbt/internal/tensor"
)

func TestSyntheticDigitsBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds := SyntheticDigits(25, []int{1, 32, 32}, rng)
	if ds.Len() != 25 {
		t.Fatalf("Len = %d, want 25", ds.Len())
	}
	if ds.Classes != 10 {
		t.Fatalf("Classes = %d", ds.Classes)
	}
	// Labels must cycle 0..9.
	for i, s := range ds.Samples {
		if s.Label != i%10 {
			t.Errorf("sample %d label %d, want %d", i, s.Label, i%10)
		}
		if s.Image.Rank() != 3 || s.Image.Dim(0) != 1 || s.Image.Dim(1) != 32 {
			t.Fatalf("sample %d shape %v", i, s.Image.Shape())
		}
	}
}

func TestSyntheticDigitsPixelRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ds := SyntheticDigits(10, []int{3, 64, 64}, rng)
	for _, s := range ds.Samples {
		var sum float64
		for _, v := range s.Image.Data {
			if v < 0 || v > 1 {
				t.Fatalf("pixel %v outside [0,1]", v)
			}
			sum += float64(v)
		}
		if sum == 0 {
			t.Fatal("image is all zeros; glyph not rendered")
		}
	}
}

func TestSyntheticDigitsDistinctClasses(t *testing.T) {
	// Images of different digits must differ; identical renderings would
	// make the classification task degenerate.
	rng := rand.New(rand.NewSource(3))
	ds := SyntheticDigits(10, []int{1, 16, 16}, rng)
	a, b := ds.Samples[0].Image, ds.Samples[1].Image
	same := true
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("digit 0 and digit 1 rendered identically")
	}
}

func TestSyntheticDigitsBadShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad shape did not panic")
		}
	}()
	SyntheticDigits(1, []int{32, 32}, rand.New(rand.NewSource(1)))
}

func TestSoftmaxCrossEntropyKnown(t *testing.T) {
	logits := tensor.FromSlice([]float32{0, 0, 0, 0}, 4)
	loss, grad := SoftmaxCrossEntropy(logits, 2)
	if math.Abs(loss-math.Log(4)) > 1e-6 {
		t.Errorf("uniform loss = %v, want ln(4) = %v", loss, math.Log(4))
	}
	for i := 0; i < 4; i++ {
		want := 0.25
		if i == 2 {
			want = -0.75
		}
		if math.Abs(float64(grad.Data[i])-want) > 1e-6 {
			t.Errorf("grad[%d] = %v, want %v", i, grad.Data[i], want)
		}
	}
}

func TestSoftmaxCrossEntropyGradSumsToZero(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	logits := tensor.New(10)
	logits.Uniform(-3, 3, rng)
	_, grad := SoftmaxCrossEntropy(logits, 7)
	var sum float64
	for _, v := range grad.Data {
		sum += float64(v)
	}
	if math.Abs(sum) > 1e-5 {
		t.Errorf("gradient sum = %v, want 0", sum)
	}
}

func TestSoftmaxCrossEntropyNumericalGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	logits := tensor.New(6)
	logits.Uniform(-2, 2, rng)
	label := 3
	_, grad := SoftmaxCrossEntropy(logits, label)
	const eps = 1e-3
	for i := 0; i < 6; i++ {
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		up, _ := SoftmaxCrossEntropy(logits, label)
		logits.Data[i] = orig - eps
		dn, _ := SoftmaxCrossEntropy(logits, label)
		logits.Data[i] = orig
		want := (up - dn) / (2 * eps)
		if math.Abs(float64(grad.Data[i])-want) > 1e-4 {
			t.Errorf("grad[%d] = %v, numerical %v", i, grad.Data[i], want)
		}
	}
}

func TestSoftmaxCrossEntropyStability(t *testing.T) {
	// Large logits must not overflow to NaN/Inf.
	logits := tensor.FromSlice([]float32{1000, -1000, 500}, 3)
	loss, grad := SoftmaxCrossEntropy(logits, 0)
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("unstable loss %v", loss)
	}
	for i, v := range grad.Data {
		if math.IsNaN(float64(v)) {
			t.Fatalf("grad[%d] is NaN", i)
		}
	}
}

func TestSoftmaxCrossEntropyBadLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad label did not panic")
		}
	}()
	SoftmaxCrossEntropy(tensor.New(3), 3)
}

func TestArgmax(t *testing.T) {
	if got := Argmax([]float32{1, 5, 3}); got != 1 {
		t.Errorf("Argmax = %d, want 1", got)
	}
	if got := Argmax([]float32{-1, -5, -3}); got != 0 {
		t.Errorf("Argmax = %d, want 0", got)
	}
}

// tinyModel builds a minimal trainable conv net for fast training tests.
func tinyModel(rng *rand.Rand) *dnn.Model {
	return &dnn.Model{
		ModelName: "tiny",
		InShape:   []int{1, 8, 8},
		Layers: []dnn.Layer{
			dnn.NewConv2D(1, 4, 3, 1, 1, rng),
			dnn.NewReLU(),
			dnn.NewMaxPool2(),
			dnn.NewFlatten(),
			dnn.NewLinear(4*4*4, 10, rng),
		},
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := tinyModel(rng)
	ds := SyntheticDigits(80, m.InShape, rng)
	tr := NewTrainer(m, Config{LR: 0.01, Epochs: 6})
	stats := tr.Run(ds, rng)
	first, last := stats[0].MeanLoss, stats[len(stats)-1].MeanLoss
	if !(last < first*0.7) {
		t.Errorf("loss did not drop: first %.4f, last %.4f", first, last)
	}
}

func TestTrainingBeatsChance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := tinyModel(rng)
	ds := SyntheticDigits(100, m.InShape, rng)
	NewTrainer(m, Config{LR: 0.01, Epochs: 8}).Run(ds, rng)
	acc := Evaluate(m, ds)
	if acc < 0.4 {
		t.Errorf("training accuracy %.2f; want well above the 0.10 chance level", acc)
	}
}

// TestEndToEndGradient checks backprop through a full model stack against
// finite differences of the actual loss.
func TestEndToEndGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := tinyModel(rng)
	ds := SyntheticDigits(1, m.InShape, rng)
	s := ds.Samples[0]

	out := m.Forward(s.Image)
	_, grad := SoftmaxCrossEntropy(out, s.Label)
	m.ZeroGrads()
	m.Backward(grad)

	lossAt := func() float64 {
		o := m.Forward(s.Image)
		l, _ := SoftmaxCrossEntropy(o, s.Label)
		return l
	}
	const eps = 1e-2
	params := m.Params()
	grads := m.Grads()
	for pi, p := range params {
		stride := p.Size()/4 + 1
		for idx := 0; idx < p.Size(); idx += stride {
			orig := p.Data[idx]
			p.Data[idx] = orig + eps
			up := lossAt()
			p.Data[idx] = orig - eps
			dn := lossAt()
			p.Data[idx] = orig
			want := (up - dn) / (2 * eps)
			got := float64(grads[pi].Data[idx])
			if math.Abs(got-want) > 2e-2*math.Max(1, math.Abs(want)) {
				t.Errorf("param %d grad[%d] = %v, numerical %v", pi, idx, got, want)
			}
		}
	}
}

func TestTrainedWeightsConcentrate(t *testing.T) {
	// After training, weight magnitudes should concentrate: the standard
	// deviation of trained weights should not exceed the random-init
	// spread, and the mean absolute weight should shrink in the large FC
	// layer (weight decay toward useful small weights is the property the
	// paper's trained-weight BT numbers rely on).
	if testing.Short() {
		t.Skip("training is slow; skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(9))
	random := dnn.LeNet(rng)
	trained := TrainedLeNet(10, 120, Config{Epochs: 2})

	meanAbs := func(vals []float32) float64 {
		var sum float64
		for _, v := range vals {
			sum += math.Abs(float64(v))
		}
		return sum / float64(len(vals))
	}
	r := meanAbs(random.WeightValues())
	tr := meanAbs(trained.WeightValues())
	// Trained nets keep similar scale but must remain finite and non-zero.
	if tr <= 0 || math.IsNaN(tr) {
		t.Fatalf("degenerate trained weights: meanAbs=%v", tr)
	}
	if tr > r*3 {
		t.Errorf("trained weights exploded: %v vs random %v", tr, r)
	}
}

func TestEvaluateUntrainedNearChance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := tinyModel(rng)
	ds := SyntheticDigits(200, m.InShape, rng)
	acc := Evaluate(m, ds)
	if acc > 0.5 {
		t.Errorf("untrained accuracy %.2f suspiciously high", acc)
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ds := SyntheticDigits(30, []int{1, 8, 8}, rng)
	before := make(map[int]int)
	for _, s := range ds.Samples {
		before[s.Label]++
	}
	ds.Shuffle(rng)
	after := make(map[int]int)
	for _, s := range ds.Samples {
		after[s.Label]++
	}
	for k, v := range before {
		if after[k] != v {
			t.Errorf("label %d count changed %d -> %d", k, v, after[k])
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.LR != 0.01 || c.Momentum != 0.9 || c.Epochs != 3 {
		t.Errorf("defaults = %+v", c)
	}
	c2 := Config{LR: 0.1, Momentum: 0.5, Epochs: 7}.withDefaults()
	if c2.LR != 0.1 || c2.Momentum != 0.5 || c2.Epochs != 7 {
		t.Errorf("explicit config overridden: %+v", c2)
	}
}

// TestUpdateMatchesTensorSequence checks that the fused SGD update produces
// the same float32 bits as the tensor-level Scale/AddScaled sequence, with
// and without weight decay, including signed-zero velocities.
func TestUpdateMatchesTensorSequence(t *testing.T) {
	for _, wd := range []float32{0, 0.01} {
		cfg := Config{LR: 0.03, Momentum: 0.9, WeightDecay: wd}
		rng := rand.New(rand.NewSource(7))
		p, v, g := tensor.New(64), tensor.New(64), tensor.New(64)
		p.Uniform(-1, 1, rng)
		v.Uniform(-0.1, 0.1, rng)
		g.Uniform(-1, 1, rng)
		v.Data[0], g.Data[0] = float32(math.Copysign(0, -1)), 0
		v.Data[1], p.Data[1] = float32(math.Copysign(0, -1)), 0.5

		wantP, wantV := p.Clone(), v.Clone()
		wantV.Scale(cfg.Momentum)
		wantV.AddScaled(g, -cfg.LR)
		if cfg.WeightDecay != 0 {
			wantV.AddScaled(wantP, -cfg.LR*cfg.WeightDecay)
		}
		wantP.AddScaled(wantV, 1)

		tr := &Trainer{cfg: cfg}
		tr.update(p.Data, v.Data, g.Data)
		for i := range p.Data {
			if math.Float32bits(p.Data[i]) != math.Float32bits(wantP.Data[i]) ||
				math.Float32bits(v.Data[i]) != math.Float32bits(wantV.Data[i]) {
				t.Fatalf("wd=%v [%d]: p=%v v=%v, sequence gives p=%v v=%v",
					wd, i, p.Data[i], v.Data[i], wantP.Data[i], wantV.Data[i])
			}
		}
	}
}

func BenchmarkTrainerStep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := dnn.LeNet(rng)
	s := SyntheticDigits(1, m.InShape, rng).Samples[0]
	tr := NewTrainer(m, Config{LR: 0.002})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Step(s)
	}
}
