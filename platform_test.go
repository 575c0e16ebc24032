package nocbt

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"nocbt/internal/accel"
)

// TestNewPlatformDefaults pins the zero-option platform: the paper's 4×4
// mesh with 2 perimeter MCs and fixed-8 links.
func TestNewPlatformDefaults(t *testing.T) {
	p, err := NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	if p.Mesh.Width != 4 || p.Mesh.Height != 4 || p.Mesh.VCs != 4 || p.Mesh.BufDepth != 4 {
		t.Errorf("default mesh = %+v", p.Mesh)
	}
	if len(p.MCs) != 2 || p.MCs[0] != 0 || p.MCs[1] != 15 {
		t.Errorf("default MCs = %v, want [0 15]", p.MCs)
	}
	if p.Geometry != Fixed8() || p.Ordering != O0 {
		t.Errorf("default geometry/ordering = %v/%v", p.Geometry, p.Ordering)
	}
}

// TestNewPlatformMatchesPresets proves the PaperPlatforms entries, the
// option bundles and the v1 accel presets build identical platforms.
func TestNewPlatformMatchesPresets(t *testing.T) {
	paper := PaperPlatforms()
	for i, tc := range []struct {
		name string
		g    Geometry
		opts func(Geometry) []PlatformOption
		v1   func(Geometry) Platform
	}{
		{"4x4MC2", Fixed8(), PaperOptions4x4MC2, accel.Mesh4x4MC2},
		{"8x8MC4", Float32(), PaperOptions8x8MC4, accel.Mesh8x8MC4},
		{"8x8MC8", Fixed8(), PaperOptions8x8MC8, accel.Mesh8x8MC8},
	} {
		preset := paper[i].Build(tc.g)
		got, err := NewPlatform(tc.opts(tc.g)...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, preset) {
			t.Errorf("%s: bundle %+v differs from PaperPlatforms entry %+v", tc.name, got, preset)
		}
		v1 := tc.v1(tc.g)
		if got.Mesh != v1.Mesh || got.Geometry != v1.Geometry || !reflect.DeepEqual(got.MCs, v1.MCs) {
			t.Errorf("%s: bundle %+v differs from v1 preset %+v", tc.name, got, v1)
		}
	}
}

// TestNewPlatformPlacements exercises each placement policy end to end.
func TestNewPlatformPlacements(t *testing.T) {
	corners, err := NewPlatform(WithMesh(6, 6), WithMCCount(4), WithMCPlacement(MCCorners))
	if err != nil {
		t.Fatal(err)
	}
	if len(corners.MCs) != 4 || corners.MCs[0] != 0 || corners.MCs[1] != 35 {
		t.Errorf("corner MCs = %v", corners.MCs)
	}
	column, err := NewPlatform(WithMesh(6, 6), WithMCCount(3), WithMCColumn(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(column.MCs) != 3 || column.MCs[0] != 0 || column.MCs[1] != 12 || column.MCs[2] != 24 {
		t.Errorf("column MCs = %v, want [0 12 24]", column.MCs)
	}
	nodes, err := NewPlatform(WithMCNodes(3, 12))
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes.MCs) != 2 || nodes.MCs[0] != 3 || nodes.MCs[1] != 12 {
		t.Errorf("explicit node MCs = %v", nodes.MCs)
	}
	coords, err := NewPlatform(WithMCCoords([2]int{1, 0}, [2]int{2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	if len(coords.MCs) != 2 || coords.MCs[0] != 1 || coords.MCs[1] != 14 {
		t.Errorf("explicit coord MCs = %v, want [1 14]", coords.MCs)
	}
}

// TestNewPlatformOptionsApplied checks the non-placement options reach the
// configuration.
func TestNewPlatformOptionsApplied(t *testing.T) {
	p, err := NewPlatform(
		WithMesh(5, 3),
		WithGeometry(Float32()),
		WithOrdering(O2),
		WithLayerMode(PipelinedLayers),
		WithVCs(2),
		WithBufferDepth(8),
		WithMCCount(1),
		WithMaxSegmentPairs(32),
		WithPEComputeCycles(16),
		WithInBandIndex(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	if p.Mesh.Width != 5 || p.Mesh.Height != 3 || p.Mesh.VCs != 2 || p.Mesh.BufDepth != 8 {
		t.Errorf("mesh = %+v", p.Mesh)
	}
	if p.Mesh.LinkBits != 512 || p.Geometry != Float32() {
		t.Errorf("geometry not applied: %+v", p)
	}
	if p.Ordering != O2 || p.LayerMode != PipelinedLayers || !p.InBandIndex {
		t.Errorf("ordering/mode/index not applied: %+v", p)
	}
	if p.MaxSegmentPairs != 32 || p.PEComputeCycles != 16 {
		t.Errorf("segment/compute options not applied: %+v", p)
	}
}

// TestNewPlatformValidation is the satellite's table-driven rejection
// suite: every invalid configuration must fail with a descriptive error,
// never a panic.
func TestNewPlatformValidation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		opts    []PlatformOption
		wantErr string
	}{
		{"mesh 1x4", []PlatformOption{WithMesh(1, 4)}, "smaller than the minimum 2x2"},
		{"mesh 4x1", []PlatformOption{WithMesh(4, 1)}, "smaller than the minimum 2x2"},
		{"mesh 0x0", []PlatformOption{WithMesh(0, 0)}, "smaller than the minimum 2x2"},
		{"negative mesh", []PlatformOption{WithMesh(-4, 4)}, "smaller than the minimum 2x2"},
		{"zero-lane geometry", []PlatformOption{WithGeometry(Geometry{})}, "bad geometry"},
		{"link below lane width", []PlatformOption{WithGeometry(Geometry{LinkBits: 16, Format: Float32().Format})}, "bad geometry"},
		{"odd lane count", []PlatformOption{WithGeometry(Geometry{LinkBits: 24, Format: Fixed8().Format})}, "bad geometry"},
		{"zero VCs", []PlatformOption{WithVCs(0)}, "virtual channel"},
		{"zero buffer depth", []PlatformOption{WithBufferDepth(0)}, "buffer depth"},
		{"zero MCs", []PlatformOption{WithMCCount(0)}, "at least 1 memory controller"},
		{"MC count beyond node count", []PlatformOption{WithMesh(2, 2), WithMCCount(5)}, "exceed the 4 nodes"},
		{"MC count beyond perimeter", []PlatformOption{WithMesh(4, 4), WithMCCount(13)}, "at most 12"},
		{"MCs fill every node", []PlatformOption{WithMesh(2, 2), WithMCCount(4)}, "leave no PE"},
		{"too many corner MCs", []PlatformOption{WithMCCount(5), WithMCPlacement(MCCorners)}, "at most 4"},
		{"column placement without column", []PlatformOption{WithMCCount(2), WithMCPlacement(MCColumn)}, "WithMCColumn"},
		{"column outside mesh", []PlatformOption{WithMCColumn(4)}, "outside mesh"},
		{"too many column MCs", []PlatformOption{WithMCColumn(0), WithMCCount(5)}, "at most 4"},
		{"MC node out of range", []PlatformOption{WithMCNodes(16)}, "outside mesh"},
		{"MC node negative", []PlatformOption{WithMCNodes(-1)}, "outside mesh"},
		{"duplicate MC nodes", []PlatformOption{WithMCNodes(3, 3)}, "duplicate MC node"},
		{"empty explicit nodes", []PlatformOption{WithMCNodes()}, "no memory controllers"},
		{"MC coordinate out of range", []PlatformOption{WithMCCoords([2]int{4, 0})}, "outside 4x4 mesh"},
		{"duplicate MC coordinates", []PlatformOption{WithMCCoords([2]int{1, 1}, [2]int{1, 1})}, "duplicate MC coordinate"},
		{"empty explicit coordinates", []PlatformOption{WithMCCoords()}, "at least one coordinate"},
		{"nodes and coords together", []PlatformOption{WithMCNodes(0), WithMCCoords([2]int{1, 1})}, "mutually exclusive"},
		{"zero segment pairs", []PlatformOption{WithMaxSegmentPairs(0)}, "MaxSegmentPairs"},
		{"zero compute cycles", []PlatformOption{WithPEComputeCycles(0)}, "PEComputeCycles"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewPlatform(tc.opts...)
			if err == nil {
				t.Fatalf("invalid platform accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
			if !strings.HasPrefix(err.Error(), "nocbt: ") {
				t.Errorf("error %q not namespaced", err)
			}
		})
	}
}

// TestPresetShimsDeferGeometryErrorsToNewEngine pins the paper presets'
// contract for a bad geometry: building the PaperPlatforms entry must not
// panic (Params.Fingerprint builds sweep platforms before validation), and
// the error surfaces from NewEngine instead.
func TestPresetShimsDeferGeometryErrorsToNewEngine(t *testing.T) {
	bad := Geometry{LinkBits: 24, Format: Fixed8().Format} // odd lane count
	cfg := PaperPlatforms()[0].Build(bad)                  // must not panic
	if v1 := accel.Mesh4x4MC2(bad); cfg.Mesh != v1.Mesh || !reflect.DeepEqual(cfg.MCs, v1.MCs) {
		t.Errorf("fallback config %+v differs from the v1 preset %+v", cfg, v1)
	}
	if cfg.Mesh.Width != 4 || len(cfg.MCs) != 2 {
		t.Errorf("fallback config malformed: %+v", cfg)
	}
	if _, err := NewEngine(cfg, LeNet(1)); err == nil ||
		!strings.Contains(err.Error(), "lane") {
		t.Errorf("invalid geometry not surfaced by NewEngine: %v", err)
	}
}

// TestNewEngineValidation covers the engine-level rejections: nil model,
// empty model, and a platform/geometry mismatch.
func TestNewEngineValidation(t *testing.T) {
	p, err := NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(p, nil); err == nil || !strings.Contains(err.Error(), "nil model") {
		t.Errorf("nil model not rejected descriptively: %v", err)
	}
	if _, err := NewEngine(p, &Model{ModelName: "hollow"}); err == nil ||
		!strings.Contains(err.Error(), "no layers") {
		t.Errorf("empty model not rejected descriptively: %v", err)
	}
	bad := p
	bad.Mesh.LinkBits = 256 // desynchronized from the 128-bit fixed-8 geometry
	if _, err := NewEngine(bad, LeNet(1)); err == nil ||
		!strings.Contains(err.Error(), "link width") {
		t.Errorf("link mismatch not rejected: %v", err)
	}
}

// TestNonPaperPlatformRunsInference is the acceptance scenario: a 6×6 mesh
// with column-placed MCs — a platform the v1 API could not express — runs
// a real inference end to end.
func TestNonPaperPlatformRunsInference(t *testing.T) {
	p, err := NewPlatform(WithMesh(6, 6), WithMCCount(3), WithMCColumn(0), WithOrdering(O2))
	if err != nil {
		t.Fatal(err)
	}
	m := LeNet(1)
	eng, err := NewEngine(p, m)
	if err != nil {
		t.Fatal(err)
	}
	out, err := eng.Infer(context.Background(), SampleInput(m, 3))
	if err != nil {
		t.Fatal(err)
	}
	if out == nil || eng.TotalBT() <= 0 || eng.Cycles() <= 0 {
		t.Errorf("degenerate non-paper run: BT=%d cycles=%d", eng.TotalBT(), eng.Cycles())
	}
}
