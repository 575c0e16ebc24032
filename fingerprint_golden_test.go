package nocbt_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nocbt"
	"nocbt/internal/serve"
)

// TestFingerprintGolden pins the content addresses the result cache (and
// its disk tier) keys on: ExperimentCacheKey for every registered
// experiment and for sweep grids spelled in mixed case, and
// PlatformFingerprint for the paper presets and the other platform axes.
// A refactor that moves any of these hashes silently orphans every cached
// result, so the file only changes when a result-changing change does.
func TestFingerprintGolden(t *testing.T) {
	var sb strings.Builder
	for _, name := range nocbt.ExperimentNames() {
		key, err := nocbt.ExperimentCacheKey(name, nocbt.Params{})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "experiment %-10s %s\n", name, key)
	}

	custom := nocbt.MustPlatform(nocbt.WithMesh(6, 6), nocbt.WithMCCount(3), nocbt.WithOrdering(nocbt.O1))
	sweeps := []struct {
		label string
		spec  nocbt.SweepSpec
	}{
		{"codings", nocbt.SweepSpec{Codings: []string{"Gray", "NONE"}}},
		{"topologies", nocbt.SweepSpec{Topologies: []string{"MESH", "torus"}}},
		{"precisions-batches", nocbt.SweepSpec{
			Geometries: []nocbt.Geometry{nocbt.Fixed8()},
			Orderings:  []nocbt.Ordering{nocbt.O0, nocbt.O2},
			Precisions: []int{4, 8},
			Batches:    []int{1, 4},
			Seeds:      []int64{2, 3},
		}},
		{"mixed", nocbt.SweepSpec{
			Platforms:  []nocbt.NamedPlatform{nocbt.FixedPlatform("custom 6x6", custom), nocbt.DefaultPlatform()},
			Models:     []nocbt.SweepModel{nocbt.LeNetModel, nocbt.DarkNetModel},
			Codings:    []string{"Gray", "NONE", "businvert"},
			Topologies: []string{"MESH", "torus"},
			Precisions: []int{2},
			Batches:    []int{2},
			Trained:    true,
		}},
	}
	for _, s := range sweeps {
		spec := s.spec
		key, err := nocbt.ExperimentCacheKey("sweep", nocbt.Params{Seed: 5, Sweep: &spec})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "sweep %-18s %s\n", s.label, key)
	}

	type namedConfig struct {
		label string
		cfg   nocbt.Platform
	}
	var platforms []namedConfig
	for _, p := range nocbt.PaperPlatforms() {
		for _, g := range []nocbt.Geometry{nocbt.Float32(), nocbt.Fixed8()} {
			platforms = append(platforms, namedConfig{p.Name + " " + g.Format.String(), p.Build(g)})
		}
	}
	served, err := serve.PlatformSpec{}.Build()
	if err != nil {
		t.Fatal(err)
	}
	platforms = append(platforms,
		namedConfig{"torus", nocbt.MustPlatform(nocbt.WithTopology("torus"))},
		namedConfig{"cmesh-4", nocbt.MustPlatform(nocbt.WithMesh(8, 8), nocbt.WithMCCount(4),
			nocbt.WithTopology("cmesh", nocbt.WithConcentration(4)))},
		namedConfig{"gray", nocbt.MustPlatform(nocbt.WithLinkCoding("gray"), nocbt.WithOrdering(nocbt.O2))},
		namedConfig{"serve-default", served},
	)
	for _, p := range platforms {
		fp, err := nocbt.PlatformFingerprint(p.cfg)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "platform %-18s %s\n", p.label, fp)
	}

	got := sb.String()
	path := filepath.Join("testdata", "fingerprints.golden")
	if f := flag.Lookup("update"); f != nil && f.Value.String() == "true" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run FingerprintGolden -update .`): %v", err)
	}
	if got != string(want) {
		t.Errorf("content addresses drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
