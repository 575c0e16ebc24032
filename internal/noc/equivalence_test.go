package noc

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// equivalenceCase is one cell of the allocator equivalence matrix.
type equivalenceCase struct {
	topology      string
	concentration int
	vcs, depth    int
}

func (c equivalenceCase) name() string {
	topo := c.topology
	if c.concentration > 0 {
		topo = fmt.Sprintf("%s%d", topo, c.concentration)
	}
	return fmt.Sprintf("%s/vc%d/depth%d", topo, c.vcs, c.depth)
}

// equivalenceMatrix spans every built-in topology (cmesh at both
// concentration factors), VC counts on both sides of the 64-requester word
// boundary (17 VCs × 5 or more ports is 85+ requesters) and the minimum and
// default buffer depths.
func equivalenceMatrix() []equivalenceCase {
	topos := []struct {
		name string
		c    int
	}{{"mesh", 0}, {"torus", 0}, {"cmesh", 2}, {"cmesh", 4}}
	var cases []equivalenceCase
	for _, tp := range topos {
		for _, vcs := range []int{2, 4, 17} {
			for _, depth := range []int{1, 4} {
				cases = append(cases, equivalenceCase{tp.name, tp.c, vcs, depth})
			}
		}
	}
	return cases
}

// equivalenceCycles is how long each case injects seeded random traffic
// before draining; the rate keeps the network congested throughout.
const equivalenceCycles = 1500

// runEquivalenceCase drives seeded random traffic through one configuration
// and renders Stats, every LinkStats row and a digest of the per-NI
// ejection order (cycle, node, packet ID, in pop order). check, when set,
// runs after every Step.
func runEquivalenceCase(t *testing.T, c equivalenceCase, check func(*Sim) error) string {
	t.Helper()
	cfg := Config{Width: 4, Height: 4, Topology: c.topology, Concentration: c.concentration,
		VCs: c.vcs, BufDepth: c.depth, LinkBits: 32}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nodes := cfg.Nodes()
	rng := rand.New(rand.NewSource(int64(len(c.name())*1000 + c.vcs*10 + c.depth)))
	digest := fnv.New64a()
	var id uint64
	step := func() {
		s.Step()
		if check != nil {
			if err := check(s); err != nil {
				t.Fatalf("cycle %d: %v", s.Cycle(), err)
			}
		}
		for n := 0; n < nodes; n++ {
			for _, p := range s.PopEjected(n) {
				fmt.Fprintf(digest, "%d:%d:%d;", s.Cycle(), n, p.ID)
			}
		}
	}
	for cycle := 0; cycle < equivalenceCycles; cycle++ {
		for n := 0; n < nodes; n++ {
			if rng.Intn(4) != 0 || s.nis[n].Pending() >= 3 {
				continue
			}
			id++
			payloads := make([]uint64, 1+rng.Intn(6))
			for j := range payloads {
				payloads[j] = rng.Uint64()
			}
			if err := s.Inject(mkPacket(id, n, rng.Intn(nodes), 32, payloads...)); err != nil {
				t.Fatal(err)
			}
		}
		step()
	}
	for i := 0; s.Busy(); i++ {
		if i >= 100000 {
			t.Fatal("network did not drain")
		}
		step()
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "== %s\n", c.name())
	fmt.Fprintf(&b, "stats %+v\n", s.Stats())
	for _, l := range s.LinkStats() {
		fmt.Fprintf(&b, "link %s %s bt=%d flits=%d\n", l.Name, l.Class, l.BT, l.Flits)
	}
	fmt.Fprintf(&b, "ejection-digest %016x\n", digest.Sum64())
	return b.String()
}

// TestAllocatorEquivalenceMatrix pins the router pipeline's observable
// behaviour — Stats, per-link BT and flit counts, and the exact ejection
// order at every NI — across the topology × VCs × depth matrix, against a
// golden captured from the full-scan allocators the request-set pipeline
// replaced. The request-set invariant is checked after every cycle.
// Regenerate with: go test ./internal/noc -run TestAllocatorEquivalenceMatrix -update
func TestAllocatorEquivalenceMatrix(t *testing.T) {
	var got bytes.Buffer
	for _, c := range equivalenceMatrix() {
		got.WriteString(runEquivalenceCase(t, c, (*Sim).checkRequestSets))
	}
	path := filepath.Join("testdata", "equivalence_matrix.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotCases := bytes.Split(got.Bytes(), []byte("== "))
	wantCases := bytes.Split(want, []byte("== "))
	for i := range gotCases {
		if i >= len(wantCases) || !bytes.Equal(gotCases[i], wantCases[i]) {
			name, _, _ := bytes.Cut(gotCases[i], []byte("\n"))
			t.Errorf("case %s differs from the golden", name)
		}
	}
	if len(wantCases) != len(gotCases) {
		t.Errorf("golden has %d cases, run produced %d", len(wantCases)-1, len(gotCases)-1)
	}
}
