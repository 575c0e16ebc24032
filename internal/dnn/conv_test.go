package dnn

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"nocbt/internal/tensor"
)

func TestConv2DForwardKnown(t *testing.T) {
	// 1 input channel, 1 output channel, 2x2 kernel of all ones, no pad.
	c := NewConv2D(1, 1, 2, 1, 0, rand.New(rand.NewSource(1)))
	c.W.Fill(1)
	c.B.Data[0] = 0.5
	x := tensor.FromSlice([]float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 3, 3)
	out := c.Forward(x)
	want := []float32{
		1 + 2 + 4 + 5 + 0.5, 2 + 3 + 5 + 6 + 0.5,
		4 + 5 + 7 + 8 + 0.5, 5 + 6 + 8 + 9 + 0.5,
	}
	if out.Dim(1) != 2 || out.Dim(2) != 2 {
		t.Fatalf("output shape %v, want [1 2 2]", out.Shape())
	}
	for i, w := range want {
		if out.Data[i] != w {
			t.Errorf("out[%d] = %v, want %v", i, out.Data[i], w)
		}
	}
}

func TestConv2DForwardPadding(t *testing.T) {
	c := NewConv2D(1, 1, 3, 1, 1, rand.New(rand.NewSource(1)))
	c.W.Fill(1)
	c.B.Fill(0)
	x := tensor.New(1, 2, 2)
	x.Fill(1)
	out := c.Forward(x)
	if out.Dim(1) != 2 || out.Dim(2) != 2 {
		t.Fatalf("padded output shape %v, want [1 2 2]", out.Shape())
	}
	// Corner output covers only the 2x2 in-bounds region.
	if got := out.At(0, 0, 0); got != 4 {
		t.Errorf("corner = %v, want 4", got)
	}
}

func TestConv2DForwardStride(t *testing.T) {
	c := NewConv2D(1, 1, 2, 2, 0, rand.New(rand.NewSource(1)))
	c.W.Fill(1)
	c.B.Fill(0)
	x := tensor.FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 4, 4)
	out := c.Forward(x)
	if out.Dim(1) != 2 || out.Dim(2) != 2 {
		t.Fatalf("strided output shape %v", out.Shape())
	}
	if got := out.At(0, 0, 0); got != 1+2+5+6 {
		t.Errorf("out(0,0) = %v, want 14", got)
	}
	if got := out.At(0, 1, 1); got != 11+12+15+16 {
		t.Errorf("out(1,1) = %v, want 54", got)
	}
}

func TestConv2DMultiChannel(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := NewConv2D(2, 3, 2, 1, 0, rng)
	x := tensor.New(2, 3, 3)
	x.Uniform(-1, 1, rng)
	out := c.Forward(x)
	if out.Dim(0) != 3 || out.Dim(1) != 2 || out.Dim(2) != 2 {
		t.Fatalf("multi-channel output shape %v, want [3 2 2]", out.Shape())
	}
	// Reference computation for one output element.
	oc, oy, ox := 1, 1, 0
	want := c.B.Data[oc]
	for ic := 0; ic < 2; ic++ {
		for ky := 0; ky < 2; ky++ {
			for kx := 0; kx < 2; kx++ {
				want += c.W.At(oc, ic, ky, kx) * x.At(ic, oy+ky, ox+kx)
			}
		}
	}
	if got := out.At(oc, oy, ox); math.Abs(float64(got-want)) > 1e-5 {
		t.Errorf("out(%d,%d,%d) = %v, want %v", oc, oy, ox, got, want)
	}
}

func TestConv2DOutSize(t *testing.T) {
	tests := []struct {
		k, s, p      int
		h, w         int
		wantH, wantW int
	}{
		{5, 1, 0, 32, 32, 28, 28}, // LeNet conv1
		{5, 1, 0, 14, 14, 10, 10}, // LeNet conv2
		{3, 1, 1, 64, 64, 64, 64}, // DarkNet same-pad
		{3, 2, 1, 8, 8, 4, 4},
	}
	for _, tt := range tests {
		c := NewConv2D(1, 1, tt.k, tt.s, tt.p, rand.New(rand.NewSource(1)))
		oh, ow := c.OutSize(tt.h, tt.w)
		if oh != tt.wantH || ow != tt.wantW {
			t.Errorf("k%d s%d p%d on %dx%d: got %dx%d, want %dx%d",
				tt.k, tt.s, tt.p, tt.h, tt.w, oh, ow, tt.wantH, tt.wantW)
		}
	}
}

func TestConv2DBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad geometry did not panic")
		}
	}()
	NewConv2D(0, 1, 3, 1, 0, rand.New(rand.NewSource(1)))
}

func TestConv2DWrongInputPanics(t *testing.T) {
	c := NewConv2D(2, 1, 3, 1, 0, rand.New(rand.NewSource(1)))
	defer func() {
		if recover() == nil {
			t.Fatal("wrong channel count did not panic")
		}
	}()
	c.Forward(tensor.New(1, 5, 5))
}

// numericalGrad estimates d(loss)/d(param) via central differences where
// loss = Σ out[i] * seed[i].
func numericalGrad(forward func() *tensor.Tensor, param *tensor.Tensor, idx int, seed []float32) float64 {
	const eps = 1e-3
	orig := param.Data[idx]
	param.Data[idx] = orig + eps
	up := forward()
	param.Data[idx] = orig - eps
	dn := forward()
	param.Data[idx] = orig
	var lossUp, lossDn float64
	for i := range up.Data {
		lossUp += float64(up.Data[i]) * float64(seed[i])
		lossDn += float64(dn.Data[i]) * float64(seed[i])
	}
	return (lossUp - lossDn) / (2 * eps)
}

func TestConv2DBackwardNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewConv2D(2, 2, 3, 1, 1, rng)
	x := tensor.New(2, 4, 4)
	x.Uniform(-1, 1, rng)

	out := c.Forward(x)
	seed := make([]float32, out.Size())
	for i := range seed {
		seed[i] = rng.Float32()*2 - 1
	}
	gradOut := tensor.FromSlice(seed, out.Shape()...)
	c.ZeroGrads()
	gradIn := c.Backward(gradOut)

	forward := func() *tensor.Tensor { return c.Forward(x) }

	// Check a sample of weight gradients.
	for _, idx := range []int{0, 7, 17, c.W.Size() - 1} {
		want := numericalGrad(forward, c.W, idx, seed)
		got := float64(c.gradW.Data[idx])
		if math.Abs(got-want) > 1e-2*math.Max(1, math.Abs(want)) {
			t.Errorf("gradW[%d] = %v, numerical %v", idx, got, want)
		}
	}
	// Bias gradients.
	for idx := 0; idx < c.B.Size(); idx++ {
		want := numericalGrad(forward, c.B, idx, seed)
		got := float64(c.gradB.Data[idx])
		if math.Abs(got-want) > 1e-2*math.Max(1, math.Abs(want)) {
			t.Errorf("gradB[%d] = %v, numerical %v", idx, got, want)
		}
	}
	// Input gradients via perturbing x.
	for _, idx := range []int{0, 5, 21, x.Size() - 1} {
		want := numericalGrad(func() *tensor.Tensor { return c.Forward(x) }, x, idx, seed)
		got := float64(gradIn.Data[idx])
		if math.Abs(got-want) > 1e-2*math.Max(1, math.Abs(want)) {
			t.Errorf("gradIn[%d] = %v, numerical %v", idx, got, want)
		}
	}
}

func TestConv2DBackwardBeforeForwardPanics(t *testing.T) {
	c := NewConv2D(1, 1, 2, 1, 0, rand.New(rand.NewSource(1)))
	defer func() {
		if recover() == nil {
			t.Fatal("Backward before Forward did not panic")
		}
	}()
	c.Backward(tensor.New(1, 1, 1))
}

func TestConv2DZeroGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := NewConv2D(1, 1, 2, 1, 0, rng)
	x := tensor.New(1, 3, 3)
	x.Uniform(-1, 1, rng)
	out := c.Forward(x)
	g := tensor.New(out.Shape()...)
	g.Fill(1)
	c.Backward(g)
	c.ZeroGrads()
	for _, v := range c.gradW.Data {
		if v != 0 {
			t.Fatal("ZeroGrads left weight gradient")
		}
	}
	for _, v := range c.gradB.Data {
		if v != 0 {
			t.Fatal("ZeroGrads left bias gradient")
		}
	}
}

// refConv2DForward is the naïve, checked-index convolution the flat-offset
// kernel must reproduce bit for bit: each output starts from the bias and
// adds W·x over in-bounds taps in ascending (ic, ky, kx) order.
func refConv2DForward(c *Conv2D, x *tensor.Tensor) *tensor.Tensor {
	h, w := x.Dim(1), x.Dim(2)
	oh, ow := c.OutSize(h, w)
	out := tensor.New(c.OutC, oh, ow)
	for oc := 0; oc < c.OutC; oc++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				acc := c.B.Data[oc]
				for ic := 0; ic < c.InC; ic++ {
					for ky := 0; ky < c.K; ky++ {
						iy := oy*c.Stride - c.Pad + ky
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < c.K; kx++ {
							ix := ox*c.Stride - c.Pad + kx
							if ix < 0 || ix >= w {
								continue
							}
							acc += c.W.At(oc, ic, ky, kx) * x.At(ic, iy, ix)
						}
					}
				}
				out.Set(acc, oc, oy, ox)
			}
		}
	}
	return out
}

// refConv2DBackward is the naïve backward pass in (oc, oy, ox, ic, ky, kx)
// order, returning fresh gradW, gradB and gradIn.
func refConv2DBackward(c *Conv2D, x, gradOut *tensor.Tensor) (gradW, gradB, gradIn *tensor.Tensor) {
	h, w := x.Dim(1), x.Dim(2)
	oh, ow := c.OutSize(h, w)
	gradW = tensor.New(c.W.Shape()...)
	gradB = tensor.New(c.OutC)
	gradIn = tensor.New(c.InC, h, w)
	for oc := 0; oc < c.OutC; oc++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				g := gradOut.At(oc, oy, ox)
				if g == 0 {
					continue
				}
				gradB.Data[oc] += g
				for ic := 0; ic < c.InC; ic++ {
					for ky := 0; ky < c.K; ky++ {
						iy := oy*c.Stride - c.Pad + ky
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < c.K; kx++ {
							ix := ox*c.Stride - c.Pad + kx
							if ix < 0 || ix >= w {
								continue
							}
							gradW.Data[gradW.Index(oc, ic, ky, kx)] += g * x.At(ic, iy, ix)
							gradIn.Data[gradIn.Index(ic, iy, ix)] += g * c.W.At(oc, ic, ky, kx)
						}
					}
				}
			}
		}
	}
	return gradW, gradB, gradIn
}

// convGeom is one convolution case for the reference-equivalence checks.
type convGeom struct {
	inC, outC, k, stride, pad, h, w int
}

// checkConv2DMatchesReference runs Forward and Backward on random data of
// geometry g and compares every float32 bit pattern with the reference.
func checkConv2DMatchesReference(t *testing.T, g convGeom, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := NewConv2D(g.inC, g.outC, g.k, g.stride, g.pad, rng)
	c.B.Uniform(-1, 1, rng)
	x := tensor.New(g.inC, g.h, g.w)
	x.Uniform(-1, 1, rng)
	out := c.Forward(x)
	same(t, "out", out, refConv2DForward(c, x))

	gradOut := tensor.New(out.Shape()...)
	gradOut.Uniform(-1, 1, rng)
	for i := range gradOut.Data {
		if rng.Intn(4) == 0 {
			gradOut.Data[i] = 0 // exercise the zero-gradient skip
		}
	}
	c.ZeroGrads()
	gradIn := c.Backward(gradOut)
	wantW, wantB, wantIn := refConv2DBackward(c, x, gradOut)
	same(t, "gradW", c.gradW, wantW)
	same(t, "gradB", c.gradB, wantB)
	same(t, "gradIn", gradIn, wantIn)
}

// same fails the test unless got and want hold identical float32 bits.
func same(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if !reflect.DeepEqual(got.Shape(), want.Shape()) {
		t.Fatalf("%s shape %v, want %v", what, got.Shape(), want.Shape())
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s[%d] = %v (%#08x), reference %v (%#08x)", what, i,
				got.Data[i], math.Float32bits(got.Data[i]),
				want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

// TestConv2DMatchesReference checks the flat-offset kernels against the
// naïve reference bit for bit. The widths give ow % 4 ≠ 0 for every stride-1
// geometry, so both the 4-output interior blocks and the scalar edge and
// tail path run.
func TestConv2DMatchesReference(t *testing.T) {
	seed := int64(0)
	for _, k := range []int{1, 3, 5} {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1, 2} {
				for _, inC := range []int{1, 3} {
					for _, w := range []int{5, 6, 9, 14} {
						g := convGeom{inC: inC, outC: 2, k: k, stride: stride, pad: pad, h: 7, w: w}
						seed++
						t.Run(fmt.Sprintf("k%d_s%d_p%d_c%d_w%d", k, stride, pad, inC, w), func(t *testing.T) {
							checkConv2DMatchesReference(t, g, seed)
						})
					}
				}
			}
		}
	}
	// The LeNet layer geometries the trained-weight pins depend on.
	for i, g := range []convGeom{lenetConv1, lenetConv2} {
		checkConv2DMatchesReference(t, g, int64(100+i))
	}
}

// FuzzConv2DMatchesReference explores the same geometry space with random
// sizes and data.
func FuzzConv2DMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(1), uint8(0), uint8(1), uint8(14), uint8(14))
	f.Add(int64(2), uint8(3), uint8(2), uint8(1), uint8(3), uint8(9), uint8(6))
	f.Add(int64(3), uint8(1), uint8(1), uint8(2), uint8(2), uint8(3), uint8(11))
	f.Fuzz(func(t *testing.T, seed int64, k, stride, pad, inC, h, w uint8) {
		g := convGeom{
			inC: 1 + int(inC%3), outC: 2,
			k: 1 + int(k%5), stride: 1 + int(stride%2), pad: int(pad % 3),
			h: 1 + int(h%16), w: 1 + int(w%16),
		}
		if g.h+2*g.pad < g.k || g.w+2*g.pad < g.k {
			t.Skip("input smaller than the kernel")
		}
		checkConv2DMatchesReference(t, g, seed)
	})
}

// LeNet's two convolution layers.
var (
	lenetConv1 = convGeom{inC: 1, outC: 6, k: 5, stride: 1, h: 32, w: 32}
	lenetConv2 = convGeom{inC: 6, outC: 16, k: 5, stride: 1, h: 14, w: 14}
)

// benchConv2D sets up a layer of geometry g with a random input.
func benchConv2D(g convGeom) (*Conv2D, *tensor.Tensor) {
	rng := rand.New(rand.NewSource(1))
	c := NewConv2D(g.inC, g.outC, g.k, g.stride, g.pad, rng)
	x := tensor.New(g.inC, g.h, g.w)
	x.Uniform(-1, 1, rng)
	return c, x
}

func BenchmarkConv2DForward(b *testing.B) {
	for _, bc := range []struct {
		name string
		g    convGeom
	}{{"lenet_conv1", lenetConv1}, {"lenet_conv2", lenetConv2}} {
		b.Run(bc.name, func(b *testing.B) {
			c, x := benchConv2D(bc.g)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Forward(x)
			}
		})
	}
}

func BenchmarkConv2DBackward(b *testing.B) {
	for _, bc := range []struct {
		name string
		g    convGeom
	}{{"lenet_conv1", lenetConv1}, {"lenet_conv2", lenetConv2}} {
		b.Run(bc.name, func(b *testing.B) {
			c, x := benchConv2D(bc.g)
			out := c.Forward(x)
			gradOut := tensor.New(out.Shape()...)
			gradOut.Uniform(-1, 1, rand.New(rand.NewSource(2)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.ZeroGrads()
				c.Backward(gradOut)
			}
		})
	}
}
