// Package noc implements the cycle-driven Network-on-Chip simulator the
// paper's with-NoC experiments run on: dimension-order routing, wormhole
// switching, virtual channels with credit-based flow control, and per-link
// bit-transition recording (Fig. 8). The interconnect itself is pluggable:
// the Topology interface (see topology.go) abstracts routing, link pairing
// and NI attachment behind a registry, with the paper's 2D mesh as the
// reserved default and torus/cmesh schemes built in.
//
// The simulator reproduces the NocDAS configuration the paper states:
// 4 virtual channels with 4-flit buffers per VC, 512-bit links for float-32
// traffic and 128-bit links for fixed-8 traffic. One simulator cycle moves
// each flit at most one hop; routers are single-cycle (route computation,
// VC allocation and switch traversal can all complete in the same cycle),
// which preserves the flit interleaving behaviour that dilutes ordering
// gains — the effect the with-NoC experiments measure — without modelling
// router pipeline depth the paper does not vary.
package noc

import "fmt"

// Port indices of a router. Port 0 is the local (NI) port; the four mesh
// directions follow.
const (
	Local = iota
	North
	East
	South
	West
	numPorts
)

// portName returns a short label for a port index.
func portName(p int) string {
	switch p {
	case Local:
		return "local"
	case North:
		return "north"
	case East:
		return "east"
	case South:
		return "south"
	case West:
		return "west"
	default:
		return fmt.Sprintf("port%d", p)
	}
}

// Config describes one NoC instance.
type Config struct {
	// Width and Height are the terminal (NI) grid dimensions. For the mesh
	// and torus topologies this is also the router grid; a concentrated
	// mesh shares each router between several terminals of the grid.
	Width, Height int
	// Topology names a registered interconnect scheme ("mesh", "torus",
	// "cmesh"); empty means the built-in 2D mesh, the paper's platform.
	// The omitempty tag keeps platform fingerprints of topology-free
	// configurations byte-identical to those minted before this field
	// existed.
	Topology string `json:",omitempty"`
	// Concentration is the terminals-per-router factor of the cmesh
	// topology (2 or 4; 0 selects the cmesh default of 4). Topologies that
	// do not concentrate reject a non-zero value.
	Concentration int `json:",omitempty"`
	// VCs is the virtual channel count per input port (paper: 4).
	VCs int
	// BufDepth is the flit capacity of each VC buffer (paper: 4).
	BufDepth int
	// LinkBits is the link width in bits; every flit payload must have
	// exactly this width (paper: 512 for float-32, 128 for fixed-8).
	LinkBits int
	// CountInjection adds NI→router injection links to TotalBT. The
	// paper's Fig. 8 records router output ports only (router→router and
	// router→NI), so this defaults to false.
	CountInjection bool
}

// DefaultConfig returns the paper's default platform: a 4×4 mesh with
// 4 VCs × 4-flit buffers and the given link width.
func DefaultConfig(linkBits int) Config {
	return Config{Width: 4, Height: 4, VCs: 4, BufDepth: 4, LinkBits: linkBits}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Width < 1 || c.Height < 1 {
		return fmt.Errorf("noc: bad mesh %dx%d", c.Width, c.Height)
	}
	if c.Width*c.Height < 2 {
		return fmt.Errorf("noc: mesh %dx%d has no links", c.Width, c.Height)
	}
	if c.VCs < 1 {
		return fmt.Errorf("noc: need at least one VC, got %d", c.VCs)
	}
	if c.BufDepth < 1 {
		return fmt.Errorf("noc: need buffer depth ≥ 1, got %d", c.BufDepth)
	}
	if c.LinkBits < 1 {
		return fmt.Errorf("noc: bad link width %d", c.LinkBits)
	}
	topo, err := c.BuildTopology()
	if err != nil {
		return err
	}
	// Every VC class of the topology's deadlock-avoidance scheme needs at
	// least one virtual channel to allocate from.
	if classes := topo.VCClasses(); c.VCs < classes {
		return fmt.Errorf("noc: topology %q needs VCs >= %d for its deadlock-avoidance VC classes, got %d",
			topo.Name(), classes, c.VCs)
	}
	return nil
}

// Nodes returns the terminal (NI) count — the packet address space. For
// the mesh and torus topologies this is also the router count.
func (c Config) Nodes() int { return c.Width * c.Height }

// XY converts a node ID to mesh coordinates: x = column, y = row.
func (c Config) XY(node int) (x, y int) { return node % c.Width, node / c.Width }

// Node converts coordinates to a node ID.
func (c Config) Node(x, y int) int { return y*c.Width + x }
