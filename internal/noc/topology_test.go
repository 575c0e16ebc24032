package noc

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// topoTestConfigs returns, per registered topology, a few valid Configs to
// exercise. Combinations a builder rejects (e.g. cmesh on a grid its blocks
// do not tile) are filtered out, but every topology must keep at least one.
func topoTestConfigs(t *testing.T, name string) []Config {
	t.Helper()
	candidates := []Config{
		{Width: 4, Height: 4, VCs: 4, BufDepth: 4, LinkBits: 8},
		{Width: 8, Height: 8, VCs: 4, BufDepth: 4, LinkBits: 8},
		{Width: 6, Height: 2, VCs: 4, BufDepth: 4, LinkBits: 8},
		{Width: 2, Height: 1, VCs: 4, BufDepth: 4, LinkBits: 8},
	}
	var out []Config
	for _, c := range candidates {
		c.Topology = name
		if _, err := c.BuildTopology(); err != nil {
			continue
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		t.Fatalf("topology %q accepts none of the candidate configs", name)
	}
	return out
}

// isLocalPort reports whether p is one of router r's local (NI) ports.
func isLocalPort(topo Topology, r, p int) bool {
	for _, lp := range topo.LocalPorts(r) {
		if lp == p {
			return true
		}
	}
	return false
}

// walkHops follows Route from src's router until it ejects at dst,
// returning the router-to-router hop count. It fails the test if the walk
// does not converge within Nodes()*Diameter hops, if Route emits an
// out-of-range VC class, or if it ejects at the wrong router or local port.
func walkHops(t *testing.T, topo Topology, src, dst int) int {
	t.Helper()
	cur, _ := topo.NodeRouter(src)
	dstR, dstP := topo.NodeRouter(dst)
	limit := topo.Nodes() * topo.Diameter()
	if limit < 1 {
		limit = 1
	}
	hops := 0
	for {
		port, class := topo.Route(cur, dst)
		if class < 0 || class >= topo.VCClasses() {
			t.Fatalf("%s: Route(%d,%d) VC class %d outside [0,%d)", topo.Name(), cur, dst, class, topo.VCClasses())
		}
		if isLocalPort(topo, cur, port) {
			if cur != dstR || port != dstP {
				t.Fatalf("%s: packet for node %d ejected at router %d port %d, want router %d port %d",
					topo.Name(), dst, cur, port, dstR, dstP)
			}
			return hops
		}
		nb, _, ok := topo.Neighbor(cur, port)
		if !ok {
			t.Fatalf("%s: Route(%d,%d) = port %d which has no link", topo.Name(), cur, dst, port)
		}
		cur = nb
		hops++
		if hops > limit {
			t.Fatalf("%s: route %d->%d did not converge within %d hops", topo.Name(), src, dst, limit)
		}
	}
}

// TestTopologyReachability checks, for every registered topology on several
// grids, that routing from every source reaches every destination within
// Nodes()*Diameter hops and ejects at the destination's own local port.
func TestTopologyReachability(t *testing.T) {
	for _, name := range TopologyNames() {
		for _, cfg := range topoTestConfigs(t, name) {
			t.Run(fmt.Sprintf("%s/%dx%d", name, cfg.Width, cfg.Height), func(t *testing.T) {
				topo, err := cfg.BuildTopology()
				if err != nil {
					t.Fatal(err)
				}
				for src := 0; src < topo.Nodes(); src++ {
					for dst := 0; dst < topo.Nodes(); dst++ {
						walkHops(t, topo, src, dst)
					}
				}
			})
		}
	}
}

// TestTopologyLinkPairing checks Neighbor's structural invariants on every
// registered topology: Links() matches the enumerated link count, pairings
// are symmetric (the reverse port links straight back), and local ports
// never have a router link.
func TestTopologyLinkPairing(t *testing.T) {
	for _, name := range TopologyNames() {
		for _, cfg := range topoTestConfigs(t, name) {
			t.Run(fmt.Sprintf("%s/%dx%d", name, cfg.Width, cfg.Height), func(t *testing.T) {
				topo, err := cfg.BuildTopology()
				if err != nil {
					t.Fatal(err)
				}
				links := 0
				for r := 0; r < topo.Routers(); r++ {
					for p := 0; p < topo.Ports(); p++ {
						nb, inPort, ok := topo.Neighbor(r, p)
						if !ok {
							continue
						}
						if isLocalPort(topo, r, p) {
							t.Fatalf("local port %d of router %d has a router link", p, r)
						}
						links++
						back, backIn, backOK := topo.Neighbor(nb, inPort)
						if !backOK || back != r || backIn != p {
							t.Fatalf("asymmetric pairing: Neighbor(%d,%d)=(%d,%d) but Neighbor(%d,%d)=(%d,%d,%v)",
								r, p, nb, inPort, nb, inPort, back, backIn, backOK)
						}
					}
				}
				if links != topo.Links() {
					t.Errorf("enumerated %d links, Links() = %d", links, topo.Links())
				}
			})
		}
	}
}

func TestTorusWraparoundHops(t *testing.T) {
	cfg := Config{Width: 4, Height: 4, Topology: "torus", VCs: 4, BufDepth: 4, LinkBits: 8}
	topo, err := cfg.BuildTopology()
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name     string
		src, dst int
		hops     int
	}{
		{"west wrap beats 3 east hops", cfg.Node(0, 0), cfg.Node(3, 0), 1},
		{"north wrap beats 3 south hops", cfg.Node(0, 0), cfg.Node(0, 3), 1},
		{"tie keeps mesh direction", cfg.Node(0, 0), cfg.Node(2, 0), 2},
		{"both dims wrap", cfg.Node(0, 0), cfg.Node(3, 3), 2},
		{"self", cfg.Node(1, 1), cfg.Node(1, 1), 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := walkHops(t, topo, tt.src, tt.dst); got != tt.hops {
				t.Errorf("hops(%d->%d) = %d, want %d", tt.src, tt.dst, got, tt.hops)
			}
		})
	}
	// No pair may exceed the torus diameter w/2 + h/2.
	if d := topo.Diameter(); d != 4 {
		t.Fatalf("4x4 torus diameter = %d, want 4", d)
	}
	for src := 0; src < topo.Nodes(); src++ {
		for dst := 0; dst < topo.Nodes(); dst++ {
			if got := walkHops(t, topo, src, dst); got > topo.Diameter() {
				t.Errorf("hops(%d->%d) = %d exceeds diameter %d", src, dst, got, topo.Diameter())
			}
		}
	}
}

func TestTorusDatelineClasses(t *testing.T) {
	cfg := Config{Width: 4, Height: 4, Topology: "torus", VCs: 4, BufDepth: 4, LinkBits: 8}
	topo, err := cfg.BuildTopology()
	if err != nil {
		t.Fatal(err)
	}
	if topo.VCClasses() != 2 {
		t.Fatalf("torus VCClasses = %d, want 2", topo.VCClasses())
	}
	// Traveling east from x=3 to x=1 wraps: before the wrap (cur > dst) the
	// packet must hold a class-0 VC, after it (cur < dst) class 1.
	if port, class := topo.Route(cfg.Node(3, 0), cfg.Node(1, 0)); port != East || class != 0 {
		t.Errorf("pre-wrap east hop = (%s, %d), want (east, 0)", portName(port), class)
	}
	if port, class := topo.Route(cfg.Node(0, 0), cfg.Node(1, 0)); port != East || class != 1 {
		t.Errorf("post-wrap east hop = (%s, %d), want (east, 1)", portName(port), class)
	}
}

func TestTorusNeedsTwoVCs(t *testing.T) {
	cfg := Config{Width: 4, Height: 4, Topology: "torus", VCs: 1, BufDepth: 4, LinkBits: 8}
	err := cfg.Validate()
	if err == nil {
		t.Fatal("torus with 1 VC passed validation; dateline classes need 2")
	}
	if !strings.Contains(err.Error(), "VCs >= 2") {
		t.Errorf("unhelpful error: %v", err)
	}
}

// TestMeshTopologyGoldenEquivalence pins the refactor's central promise:
// naming the topology "mesh" explicitly produces byte-identical behaviour
// to the historical implicit mesh — same link names, flit counts and bit
// transitions under identical traffic. The router request sets are checked
// against the VC state after every cycle.
func TestMeshTopologyGoldenEquivalence(t *testing.T) {
	run := func(topology string) ([]LinkStat, Stats) {
		cfg := testConfig(4, 4, 16)
		cfg.Topology = topology
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 120; i++ {
			src, dst := rng.Intn(16), rng.Intn(16)
			if err := s.Inject(mkPacket(uint64(i+1), src, dst, 16, uint64(rng.Intn(1<<16)), uint64(rng.Intn(1<<16)))); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; s.Busy(); i++ {
			if i >= 100000 {
				t.Fatal("network did not drain")
			}
			s.Step()
			if err := s.checkRequestSets(); err != nil {
				t.Fatalf("cycle %d: %v", s.Cycle(), err)
			}
		}
		return s.LinkStats(), s.Stats()
	}
	implicitLinks, implicitStats := run("")
	explicitLinks, explicitStats := run("mesh")
	if !reflect.DeepEqual(implicitLinks, explicitLinks) {
		t.Error(`Topology:"mesh" link stats differ from the implicit mesh`)
	}
	if implicitStats != explicitStats {
		t.Errorf(`Topology:"mesh" stats %+v differ from implicit %+v`, explicitStats, implicitStats)
	}
}

// TestTorusSaturatedDrain drives heavy random all-to-all traffic through an
// 8×8 torus and requires a full drain: with the dateline VC classes the
// wraparound rings must not deadlock even at saturation.
func TestTorusSaturatedDrain(t *testing.T) {
	cfg := Config{Width: 8, Height: 8, Topology: "torus", VCs: 4, BufDepth: 4, LinkBits: 16}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	const perNode = 8
	n := 0
	for src := 0; src < cfg.Nodes(); src++ {
		for k := 0; k < perNode; k++ {
			dst := rng.Intn(cfg.Nodes())
			payloads := make([]uint64, 1+rng.Intn(5))
			for j := range payloads {
				payloads[j] = uint64(rng.Intn(1 << 16))
			}
			n++
			if err := s.Inject(mkPacket(uint64(n), src, dst, 16, payloads...)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Drain(500000); err != nil {
		t.Fatalf("torus deadlocked or stalled: %v", err)
	}
	st := s.Stats()
	if st.PacketsDelivered != int64(n) {
		t.Errorf("delivered %d of %d packets", st.PacketsDelivered, n)
	}
}

// TestCMeshDelivery runs cross traffic through both supported concentration
// factors and checks every packet arrives at its terminal.
func TestCMeshDelivery(t *testing.T) {
	for _, conc := range []int{2, 4} {
		t.Run(fmt.Sprintf("c%d", conc), func(t *testing.T) {
			cfg := Config{Width: 4, Height: 4, Topology: "cmesh", Concentration: conc, VCs: 4, BufDepth: 4, LinkBits: 16}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(5))
			const n = 200
			wantAt := make(map[uint64]int)
			for i := 0; i < n; i++ {
				src, dst := rng.Intn(16), rng.Intn(16)
				id := uint64(i + 1)
				wantAt[id] = dst
				if err := s.Inject(mkPacket(id, src, dst, 16, uint64(rng.Intn(1<<16)))); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Drain(100000); err != nil {
				t.Fatal(err)
			}
			for node := 0; node < 16; node++ {
				for _, p := range s.PopEjected(node) {
					if wantAt[p.ID] != node {
						t.Errorf("packet %d delivered to %d, want %d", p.ID, node, wantAt[p.ID])
					}
					delete(wantAt, p.ID)
				}
			}
			if len(wantAt) != 0 {
				t.Errorf("%d packets lost", len(wantAt))
			}
		})
	}
}

func TestCMeshFewerHopsThanMesh(t *testing.T) {
	// Concentration shrinks the router grid, so corner-to-corner traffic
	// crosses fewer routers than the mesh.
	mesh := Config{Width: 8, Height: 8, VCs: 4, BufDepth: 4, LinkBits: 8}
	cm := Config{Width: 8, Height: 8, Topology: "cmesh", VCs: 4, BufDepth: 4, LinkBits: 8}
	mt, err := mesh.BuildTopology()
	if err != nil {
		t.Fatal(err)
	}
	ct, err := cm.BuildTopology()
	if err != nil {
		t.Fatal(err)
	}
	src, dst := mesh.Node(0, 0), mesh.Node(7, 7)
	mh := walkHops(t, mt, src, dst)
	ch := walkHops(t, ct, src, dst)
	if ch >= mh {
		t.Errorf("cmesh corner hops %d not below mesh %d", ch, mh)
	}
	if ct.Routers() != 16 {
		t.Errorf("8x8 cmesh c=4 routers = %d, want 16", ct.Routers())
	}
}

func TestRegisterTopologyValidation(t *testing.T) {
	nop := func(cfg Config) (Topology, error) { return newMeshTopology(cfg) }
	if err := RegisterTopology("", nop); err == nil {
		t.Error("empty name accepted")
	}
	if err := RegisterTopology("mesh", nop); err == nil {
		t.Error("reserved name mesh accepted")
	}
	if err := RegisterTopology("Torus", nop); err == nil {
		t.Error("duplicate (case-insensitive) torus accepted")
	}
	if err := RegisterTopology("broken", nil); err == nil {
		t.Error("nil builder accepted")
	}
}

func TestTopologyNamesAndCanonical(t *testing.T) {
	names := TopologyNames()
	if len(names) == 0 || names[0] != "mesh" {
		t.Fatalf("TopologyNames() = %v, want mesh first", names)
	}
	want := map[string]bool{"torus": true, "cmesh": true}
	for _, n := range names[1:] {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Errorf("built-in topologies missing from TopologyNames(): %v", want)
	}
	if got, ok := CanonicalTopologyName("mesh"); !ok || got != "" {
		t.Errorf(`CanonicalTopologyName("mesh") = %q, %v, want "", true`, got, ok)
	}
	if got, ok := CanonicalTopologyName(""); !ok || got != "" {
		t.Errorf(`CanonicalTopologyName("") = %q, %v, want "", true`, got, ok)
	}
	if got, ok := CanonicalTopologyName("TORUS"); !ok || got != "torus" {
		t.Errorf(`CanonicalTopologyName("TORUS") = %q, %v, want "torus", true`, got, ok)
	}
	if _, ok := CanonicalTopologyName("hypercube"); ok {
		t.Error(`CanonicalTopologyName("hypercube") reported ok`)
	}
	if got := TopologyDisplayName(""); got != "mesh" {
		t.Errorf(`TopologyDisplayName("") = %q, want "mesh"`, got)
	}
	if _, err := (Config{Width: 4, Height: 4, Topology: "hypercube"}).BuildTopology(); err == nil {
		t.Error("unknown topology accepted")
	}
}

func TestMeshRejectsConcentration(t *testing.T) {
	for _, name := range []string{"", "mesh", "torus"} {
		cfg := Config{Width: 4, Height: 4, Topology: name, Concentration: 4, VCs: 4, BufDepth: 4, LinkBits: 8}
		if err := cfg.Validate(); err == nil {
			t.Errorf("topology %q accepted a concentration factor", name)
		}
	}
}
