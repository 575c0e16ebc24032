package hwmodel

import "fmt"

// Per-component energy model in the BitSim/BitVert style: instead of the
// single §V-C link back-of-envelope, each accelerator component is priced
// by a per-bit (or per-event) constant multiplied by the engine's measured
// activity counters. The accel package counts events; this file converts
// them to joules, so every experiment can report pJ/inference broken down
// by component.

// EnergyParams holds the per-event energy constants of one technology
// point. The defaults are order-of-magnitude figures for a ~28 nm node,
// anchored on the paper's Innovus-extracted link constant
// (EnergyPerTransitionOurs); swap in measured constants for a different
// process without touching any counting code.
type EnergyParams struct {
	// MACEnergyPerBitOp is the energy of one partial-product bit operation:
	// an n×n-bit MAC costs n² of these, which is what makes narrow lanes
	// quadratically cheaper in the PE array (the Bit Fusion scaling).
	MACEnergyPerBitOp float64
	// WeightRegEnergyPerBit is the energy of latching one bit into a PE
	// weight register.
	WeightRegEnergyPerBit float64
	// DispatcherEnergyPerBit is the energy of pushing one bit through the
	// MC dispatcher/ordering unit onto the mesh.
	DispatcherEnergyPerBit float64
	// LinkEnergyPerTransition is the energy of one wire toggle on an
	// inter-router link — the paper's measured quantity.
	LinkEnergyPerTransition float64
}

// DefaultEnergyParams returns the repository's reference constants: the
// paper's 0.173 pJ/transition link figure, 4 fJ per MAC partial-product
// bit operation (≈0.26 pJ for an 8×8 MAC), 1.5 fJ per weight-register bit
// and 0.8 fJ per dispatcher bit.
func DefaultEnergyParams() EnergyParams {
	return EnergyParams{
		MACEnergyPerBitOp:       4e-15,
		WeightRegEnergyPerBit:   1.5e-15,
		DispatcherEnergyPerBit:  0.8e-15,
		LinkEnergyPerTransition: EnergyPerTransitionOurs,
	}
}

// Activity is the measured event record one estimate prices — the wire
// form of the engine's EnergyCounters.
type Activity struct {
	// MACBitOps is Σ weightBits×inputBits over every MAC executed.
	MACBitOps int64
	// WeightRegBits counts bits latched into PE weight registers.
	WeightRegBits int64
	// DispatcherBits counts bits pushed through MC dispatchers (flits ×
	// link width).
	DispatcherBits int64
	// LinkTransitions is the measured wire-toggle count (total BT).
	LinkTransitions int64
}

// EnergyBreakdown is a per-component energy estimate in joules.
type EnergyBreakdown struct {
	PEMACJ      float64
	WeightRegJ  float64
	DispatcherJ float64
	LinkJ       float64
}

// TotalJ returns the summed energy of all components.
func (b EnergyBreakdown) TotalJ() float64 {
	return b.PEMACJ + b.WeightRegJ + b.DispatcherJ + b.LinkJ
}

// String renders the breakdown in picojoules.
func (b EnergyBreakdown) String() string {
	return fmt.Sprintf("pe=%.1fpJ wreg=%.1fpJ disp=%.1fpJ link=%.1fpJ total=%.1fpJ",
		b.PEMACJ*1e12, b.WeightRegJ*1e12, b.DispatcherJ*1e12, b.LinkJ*1e12, b.TotalJ()*1e12)
}

// Estimate prices the activity record under the params.
func (p EnergyParams) Estimate(a Activity) EnergyBreakdown {
	return EnergyBreakdown{
		PEMACJ:      p.MACEnergyPerBitOp * float64(a.MACBitOps),
		WeightRegJ:  p.WeightRegEnergyPerBit * float64(a.WeightRegBits),
		DispatcherJ: p.DispatcherEnergyPerBit * float64(a.DispatcherBits),
		LinkJ:       p.LinkEnergyPerTransition * float64(a.LinkTransitions),
	}
}

// DerivedLinkModelFromLinks builds the §V-C link power model from an
// explicit inter-router link count — bidirectional pairs counted once,
// the paper's convention (112 for 8×8 mesh). This is the topology-generic
// entry point: pass Topology.Links()/2 from the noc package, so torus
// wrap links and cmesh's reduced grid price their actual wire budget.
// Frequency and toggle fraction keep the paper's 125 MHz / one-half
// assumptions.
func DerivedLinkModelFromLinks(links, linkBits int, energyPerTransition float64) LinkPowerModel {
	return LinkPowerModel{
		EnergyPerTransition: energyPerTransition,
		LinkBits:            linkBits,
		Links:               links,
		FreqHz:              125e6,
		ToggleFraction:      0.5,
	}
}
