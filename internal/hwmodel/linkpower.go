package hwmodel

// Link energy constants from §V-C.
const (
	// EnergyPerTransitionOurs is the paper's Innovus-extracted figure for
	// their physical links: 0.173 pJ per bit transition.
	EnergyPerTransitionOurs = 0.173e-12
	// EnergyPerTransitionBanerjee is the Banerjee et al. [6] link model:
	// 0.532 pJ per bit transition.
	EnergyPerTransitionBanerjee = 0.532e-12
)

// LinkPowerModel reproduces the paper's §V-C back-of-envelope link power
// estimate.
type LinkPowerModel struct {
	// EnergyPerTransition in joules per toggling bit.
	EnergyPerTransition float64
	// LinkBits is the link width.
	LinkBits int
	// ExtraBitsPerLink counts additional physical wires a link coding
	// adds per link (bus-invert's invert lines); they toggle — and burn
	// power — like any payload wire. Zero for the paper's uncoded links.
	ExtraBitsPerLink int
	// Links is the inter-router link count (the paper uses 112 for 8×8).
	Links int
	// FreqHz is the clock frequency.
	FreqHz float64
	// ToggleFraction is the fraction of wires toggling each cycle
	// (the paper assumes one half).
	ToggleFraction float64
}

// PaperLinkModel returns the exact §V-C configuration: 128-bit links, 112
// links in an 8×8 mesh, 125 MHz, half the wires toggling. It is the
// pinned paper preset of DerivedLinkModelFromLinks(112, 128, e), which
// takes the link count from any topology instead.
func PaperLinkModel(energyPerTransition float64) LinkPowerModel {
	return LinkPowerModel{
		EnergyPerTransition: energyPerTransition,
		LinkBits:            128,
		Links:               112,
		FreqHz:              125e6,
		ToggleFraction:      0.5,
	}
}

// WithExtraLines returns a copy of the model with a link coding's extra
// per-link wires added to the toggling width — how bus-invert's §II
// overhead enters the power arithmetic.
func (m LinkPowerModel) WithExtraLines(n int) LinkPowerModel {
	m.ExtraBitsPerLink = n
	return m
}

// PowerW returns the total link power in watts:
// E_t × ((LinkBits + ExtraBitsPerLink) × ToggleFraction) × Links × f.
func (m LinkPowerModel) PowerW() float64 {
	return m.EnergyPerTransition * float64(m.LinkBits+m.ExtraBitsPerLink) * m.ToggleFraction * float64(m.Links) * m.FreqHz
}

// ReducedPowerW applies a BT reduction rate (0..1) to the toggling
// activity: with 40.85% fewer transitions, power scales by 1−0.4085.
func (m LinkPowerModel) ReducedPowerW(btReduction float64) float64 {
	return m.PowerW() * (1 - btReduction)
}

// EnergyForTransitions converts a measured transition count into joules.
func (m LinkPowerModel) EnergyForTransitions(transitions int64) float64 {
	return m.EnergyPerTransition * float64(transitions)
}
