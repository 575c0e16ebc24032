package dnn

import (
	"fmt"
	"math/rand"

	"nocbt/internal/tensor"
)

// Conv2D is a standard 2-D convolution over CHW input.
//
// Weights have shape [OutC, InC, K, K]; bias has shape [OutC]. The layer is
// the unit of traffic in the accelerator: each output activation becomes one
// task whose K·K·InC (input, weight) pairs travel through the NoC, which is
// exactly the data the paper's ordering unit reorders.
type Conv2D struct {
	InC, OutC int
	K         int // square kernel side
	Stride    int
	Pad       int

	W *tensor.Tensor // [OutC, InC, K, K]
	B *tensor.Tensor // [OutC]

	gradW *tensor.Tensor
	gradB *tensor.Tensor
	input *tensor.Tensor // cached for Backward
}

// NewConv2D constructs a convolution layer with Kaiming-uniform weights.
func NewConv2D(inC, outC, k, stride, pad int, rng *rand.Rand) *Conv2D {
	if inC <= 0 || outC <= 0 || k <= 0 || stride <= 0 || pad < 0 {
		panic(fmt.Sprintf("dnn: bad Conv2D geometry inC=%d outC=%d k=%d stride=%d pad=%d",
			inC, outC, k, stride, pad))
	}
	c := &Conv2D{
		InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad,
		W:     tensor.New(outC, inC, k, k),
		B:     tensor.New(outC),
		gradW: tensor.New(outC, inC, k, k),
		gradB: tensor.New(outC),
	}
	c.W.KaimingUniform(inC*k*k, rng)
	return c
}

// Name implements Layer.
func (c *Conv2D) Name() string {
	return fmt.Sprintf("conv%dx%d(%d->%d,s%d,p%d)", c.K, c.K, c.InC, c.OutC, c.Stride, c.Pad)
}

// OutSize returns the spatial output size for an input of h×w.
func (c *Conv2D) OutSize(h, w int) (oh, ow int) {
	oh = (h+2*c.Pad-c.K)/c.Stride + 1
	ow = (w+2*c.Pad-c.K)/c.Stride + 1
	return oh, ow
}

// taps returns the kernel taps [lo, hi) whose input coordinate origin+tap
// lies inside [0, n); the range is empty when no tap does.
func taps(origin, k, n int) (lo, hi int) {
	lo, hi = max(0, -origin), min(k, n-origin)
	return lo, max(lo, hi)
}

// Forward implements Layer.
//
// Each output is bias + Σ W·x over its in-bounds taps in ascending
// (ic, ky, kx) order (see the package doc). In the stride-1 interior, four
// adjacent outputs of a row are computed together, each in its own
// accumulator, so blocking changes no output's summation order.
func (c *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 3 || x.Dim(0) != c.InC {
		panic(fmt.Sprintf("dnn: %s got input %v", c.Name(), x.Shape()))
	}
	c.input = x
	h, w := x.Dim(1), x.Dim(2)
	oh, ow := c.OutSize(h, w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("dnn: %s input %dx%d too small", c.Name(), h, w))
	}
	out := tensor.New(c.OutC, oh, ow)
	k, s, inC := c.K, c.Stride, c.InC
	xd := x.Data
	// Outputs [c.Pad, xEnd) of a stride-1 row read only in-bounds columns.
	xEnd := w - k + c.Pad + 1
	for oc := 0; oc < c.OutC; oc++ {
		wOC := c.W.Data[oc*inC*k*k : (oc+1)*inC*k*k]
		bias := c.B.Data[oc]
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*s - c.Pad
			ky0, ky1 := taps(iy0, k, h)
			row := out.Data[(oc*oh+oy)*ow : (oc*oh+oy+1)*ow]
			// point computes one output with the scalar, edge-aware path.
			point := func(ox int) float32 {
				ix0 := ox*s - c.Pad
				kx0, kx1 := taps(ix0, k, w)
				acc := bias
				if kx0 == kx1 {
					return acc
				}
				for ic := 0; ic < inC; ic++ {
					for ky := ky0; ky < ky1; ky++ {
						wo := (ic*k+ky)*k + kx0
						xo := (ic*h+iy0+ky)*w + ix0 + kx0
						xr := xd[xo : xo+kx1-kx0]
						for j, wv := range wOC[wo : wo+kx1-kx0] {
							acc += wv * xr[j]
						}
					}
				}
				return acc
			}
			ox := 0
			if s == 1 {
				for ; ox < min(c.Pad, ow); ox++ {
					row[ox] = point(ox)
				}
				for ; ox+4 <= xEnd; ox += 4 {
					a0, a1, a2, a3 := bias, bias, bias, bias
					for ic := 0; ic < inC; ic++ {
						for ky := ky0; ky < ky1; ky++ {
							wr := wOC[(ic*k+ky)*k : (ic*k+ky+1)*k]
							xo := (ic*h+iy0+ky)*w + ox - c.Pad
							xr := xd[xo : xo+k+3]
							for kx, wv := range wr {
								a0 += wv * xr[kx]
								a1 += wv * xr[kx+1]
								a2 += wv * xr[kx+2]
								a3 += wv * xr[kx+3]
							}
						}
					}
					row[ox], row[ox+1], row[ox+2], row[ox+3] = a0, a1, a2, a3
				}
			}
			for ; ox < ow; ox++ {
				row[ox] = point(ox)
			}
		}
	}
	return out
}

// Backward implements Trainable.
//
// Gradients accumulate in (oc, oy, ox, ic, ky, kx) order, so every element
// of gradW, gradB and gradIn receives its terms in a fixed order.
func (c *Conv2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if c.input == nil {
		panic("dnn: Conv2D.Backward before Forward")
	}
	x := c.input
	h, w := x.Dim(1), x.Dim(2)
	oh, ow := c.OutSize(h, w)
	if gradOut.Dim(0) != c.OutC || gradOut.Dim(1) != oh || gradOut.Dim(2) != ow {
		panic(fmt.Sprintf("dnn: %s gradOut %v, want [%d %d %d]",
			c.Name(), gradOut.Shape(), c.OutC, oh, ow))
	}
	gradIn := tensor.New(c.InC, h, w)
	k, s, inC := c.K, c.Stride, c.InC
	xd, gi := x.Data, gradIn.Data
	for oc := 0; oc < c.OutC; oc++ {
		wOC := c.W.Data[oc*inC*k*k : (oc+1)*inC*k*k]
		gwOC := c.gradW.Data[oc*inC*k*k : (oc+1)*inC*k*k]
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*s - c.Pad
			ky0, ky1 := taps(iy0, k, h)
			gRow := gradOut.Data[(oc*oh+oy)*ow : (oc*oh+oy+1)*ow]
			for ox, g := range gRow {
				if g == 0 {
					continue
				}
				c.gradB.Data[oc] += g
				ix0 := ox*s - c.Pad
				kx0, kx1 := taps(ix0, k, w)
				if kx0 == kx1 {
					continue
				}
				n := kx1 - kx0
				for ic := 0; ic < inC; ic++ {
					for ky := ky0; ky < ky1; ky++ {
						wo := (ic*k+ky)*k + kx0
						xo := (ic*h+iy0+ky)*w + ix0 + kx0
						wr, gwr := wOC[wo:wo+n], gwOC[wo:wo+n]
						xr, gir := xd[xo:xo+n], gi[xo:xo+n]
						for j, wv := range wr {
							gwr[j] += g * xr[j]
							gir[j] += g * wv
						}
					}
				}
			}
		}
	}
	return gradIn
}

// Params implements Trainable.
func (c *Conv2D) Params() []*tensor.Tensor { return []*tensor.Tensor{c.W, c.B} }

// Grads implements Trainable.
func (c *Conv2D) Grads() []*tensor.Tensor { return []*tensor.Tensor{c.gradW, c.gradB} }

// ZeroGrads implements Trainable.
func (c *Conv2D) ZeroGrads() {
	c.gradW.Fill(0)
	c.gradB.Fill(0)
}

var _ Trainable = (*Conv2D)(nil)
