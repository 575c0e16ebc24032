package noc

import "testing"

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(128).Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := []Config{
		{Width: 0, Height: 4, VCs: 4, BufDepth: 4, LinkBits: 128},
		{Width: 1, Height: 1, VCs: 4, BufDepth: 4, LinkBits: 128},
		{Width: 4, Height: 4, VCs: 0, BufDepth: 4, LinkBits: 128},
		{Width: 4, Height: 4, VCs: 4, BufDepth: 0, LinkBits: 128},
		{Width: 4, Height: 4, VCs: 4, BufDepth: 4, LinkBits: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d passed validation", i)
		}
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := DefaultConfig(512)
	if c.Width != 4 || c.Height != 4 {
		t.Errorf("default mesh %dx%d, want 4x4", c.Width, c.Height)
	}
	if c.VCs != 4 || c.BufDepth != 4 {
		t.Errorf("default VCs=%d depth=%d, want 4/4", c.VCs, c.BufDepth)
	}
}

func TestXYNodeRoundTrip(t *testing.T) {
	c := Config{Width: 5, Height: 3}
	for y := 0; y < 3; y++ {
		for x := 0; x < 5; x++ {
			id := c.Node(x, y)
			gx, gy := c.XY(id)
			if gx != x || gy != y {
				t.Errorf("round trip (%d,%d) -> %d -> (%d,%d)", x, y, id, gx, gy)
			}
		}
	}
}

func TestInterRouterLinksPaperCount(t *testing.T) {
	// The paper's §V-C counts 112 inter-router links in an 8×8 NoC
	// (bidirectional pairs); the mesh topology counts them unidirectional.
	for _, c := range []struct{ w, h, want int }{{8, 8, 224}, {4, 4, 48}} {
		topo, err := Config{Width: c.w, Height: c.h}.BuildTopology()
		if err != nil {
			t.Fatal(err)
		}
		if got := topo.Links(); got != c.want {
			t.Errorf("%dx%d unidirectional links = %d, want %d", c.w, c.h, got, c.want)
		}
	}
}

func TestRouteXYOrder(t *testing.T) {
	c := Config{Width: 4, Height: 4}
	topo, err := c.BuildTopology()
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name     string
		cur, dst int
		want     int
	}{
		{"east first", c.Node(0, 0), c.Node(3, 3), East},
		{"west first", c.Node(3, 0), c.Node(0, 3), West},
		{"then south", c.Node(3, 0), c.Node(3, 3), South},
		{"then north", c.Node(2, 3), c.Node(2, 0), North},
		{"x before y", c.Node(1, 1), c.Node(2, 0), East},
		{"arrived", c.Node(2, 2), c.Node(2, 2), Local},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, class := topo.Route(tt.cur, tt.dst)
			if got != tt.want {
				t.Errorf("Route(%d,%d) = %s, want %s", tt.cur, tt.dst, portName(got), portName(tt.want))
			}
			if class != 0 {
				t.Errorf("Route(%d,%d) VC class = %d, want 0 (mesh is single-class)", tt.cur, tt.dst, class)
			}
		})
	}
}

func TestMeshNeighborPairing(t *testing.T) {
	c := Config{Width: 3, Height: 3}
	topo, err := c.BuildTopology()
	if err != nil {
		t.Fatal(err)
	}
	center := c.Node(1, 1)
	pairs := map[int]struct{ nb, inPort int }{
		North: {c.Node(1, 0), South},
		South: {c.Node(1, 2), North},
		East:  {c.Node(2, 1), West},
		West:  {c.Node(0, 1), East},
	}
	for port, want := range pairs {
		nb, inPort, ok := topo.Neighbor(center, port)
		if !ok || nb != want.nb || inPort != want.inPort {
			t.Errorf("Neighbor(center, %s) = (%d, %d, %v), want (%d, %d, true)",
				portName(port), nb, inPort, ok, want.nb, want.inPort)
		}
	}
	// Edges and the local port have no link — formerly a panic path in
	// opposite(); the topology simply reports no pairing.
	if _, _, ok := topo.Neighbor(c.Node(0, 0), West); ok {
		t.Error("west of corner should have no link")
	}
	if _, _, ok := topo.Neighbor(c.Node(2, 2), South); ok {
		t.Error("south of corner should have no link")
	}
	if _, _, ok := topo.Neighbor(center, Local); ok {
		t.Error("local port should have no router link")
	}
}

func TestPortNames(t *testing.T) {
	want := map[int]string{Local: "local", North: "north", East: "east", South: "south", West: "west", 9: "port9"}
	for p, w := range want {
		if got := portName(p); got != w {
			t.Errorf("portName(%d) = %q, want %q", p, got, w)
		}
	}
}
