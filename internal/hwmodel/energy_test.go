package hwmodel

import (
	"math"
	"strings"
	"testing"
)

func TestDerivedLinkModelPinsPaperModel(t *testing.T) {
	// PaperLinkModel is the pinned preset of the derived constructor: the
	// 8×8 mesh's 112 link pairs at 128 bits must reproduce it field for
	// field, for both published energy constants.
	for _, e := range []float64{EnergyPerTransitionOurs, EnergyPerTransitionBanerjee} {
		if got, want := DerivedLinkModelFromLinks(112, 128, e), PaperLinkModel(e); got != want {
			t.Errorf("DerivedLinkModelFromLinks(112,128,%g) = %+v, want %+v", e, got, want)
		}
	}
}

func TestDerivedLinkModelScalesWithMesh(t *testing.T) {
	// 24 and 112 are the link-pair counts of a 4×4 and an 8×8 mesh.
	small := DerivedLinkModelFromLinks(24, 128, EnergyPerTransitionOurs)
	big := DerivedLinkModelFromLinks(112, 128, EnergyPerTransitionOurs)
	if ratio := big.PowerW() / small.PowerW(); math.Abs(ratio-112.0/24.0) > 1e-12 {
		t.Errorf("power ratio 8x8/4x4 = %v, want %v", ratio, 112.0/24.0)
	}
}

func TestEstimateArithmetic(t *testing.T) {
	p := EnergyParams{
		MACEnergyPerBitOp:       2,
		WeightRegEnergyPerBit:   3,
		DispatcherEnergyPerBit:  5,
		LinkEnergyPerTransition: 7,
	}
	b := p.Estimate(Activity{MACBitOps: 10, WeightRegBits: 100, DispatcherBits: 1000, LinkTransitions: 10000})
	if b.PEMACJ != 20 || b.WeightRegJ != 300 || b.DispatcherJ != 5000 || b.LinkJ != 70000 {
		t.Fatalf("breakdown = %+v", b)
	}
	if got, want := b.TotalJ(), 20.0+300+5000+70000; got != want {
		t.Fatalf("TotalJ = %v, want %v", got, want)
	}
}

func TestEstimateZeroActivityIsZero(t *testing.T) {
	if got := DefaultEnergyParams().Estimate(Activity{}).TotalJ(); got != 0 {
		t.Fatalf("zero activity TotalJ = %v", got)
	}
}

func TestDefaultEnergyParamsAnchoredOnPaperLink(t *testing.T) {
	if DefaultEnergyParams().LinkEnergyPerTransition != EnergyPerTransitionOurs {
		t.Fatal("default link constant is not the paper's Innovus figure")
	}
}

func TestEnergyBreakdownString(t *testing.T) {
	s := EnergyBreakdown{PEMACJ: 1e-12, WeightRegJ: 2e-12, DispatcherJ: 3e-12, LinkJ: 4e-12}.String()
	for _, want := range []string{"pe=1.0pJ", "wreg=2.0pJ", "disp=3.0pJ", "link=4.0pJ", "total=10.0pJ"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestNarrowLanesQuadraticallyCheaperMACs(t *testing.T) {
	// The Bit Fusion scaling the MACBitOps counter encodes: halving the
	// lane width quarters the MAC energy for the same MAC count.
	p := DefaultEnergyParams()
	n := int64(1000)
	e8 := p.Estimate(Activity{MACBitOps: n * 8 * 8}).PEMACJ
	e4 := p.Estimate(Activity{MACBitOps: n * 4 * 4}).PEMACJ
	if math.Abs(e8/e4-4) > 1e-12 {
		t.Errorf("8-bit/4-bit MAC energy ratio = %v, want 4", e8/e4)
	}
}
