package nocbt

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nocbt/internal/stats"
)

// The root integration suite exercises the figure-reproduction entry points
// end to end: the concurrent sweep runner against the serial reference
// loops (determinism under concurrency), plus the golden-file helper the
// experiment suites share.

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// sweepOrderings runs O0/O1/O2 on one platform and fills reduction rates —
// the old Fig. 12/13 inner loop, kept as the serial reference the
// concurrent sweep runner is tested against.
func sweepOrderings(name string, cfg Platform, model *Model, input *Tensor) ([]NoCRunResult, error) {
	var out []NoCRunResult
	var baseline float64
	for _, ord := range Orderings() {
		r, err := RunModelOnNoC(context.Background(), name, cfg, ord, model, input)
		if err != nil {
			return nil, fmt.Errorf("%s/%s/%s: %w", name, cfg.Geometry, ord, err)
		}
		if ord == O0 {
			baseline = float64(r.TotalBT)
		}
		r.ReductionPct = 100 * stats.ReductionRate(baseline, float64(r.TotalBT))
		out = append(out, r)
	}
	return out, nil
}

// runSweepSerial is the sequential counterpart of RunSweep: same grid, same
// nesting order, same arithmetic, but single-threaded direct loops with no
// model cloning or pooling. The spec must sweep all of O0/O1/O2 (the grid
// sweepOrderings hardwires).
func runSweepSerial(spec SweepSpec) ([]NoCRunResult, error) {
	spec = spec.withDefaults()
	var all []NoCRunResult
	for _, seed := range spec.Seeds {
		for _, m := range spec.Models {
			var model *Model
			switch {
			case m == LeNetModel && spec.Trained:
				model = TrainedLeNet(seed)
			case m == LeNetModel:
				model = LeNet(seed)
			case m == DarkNetModel && spec.Trained:
				model = TrainedDarkNet(seed)
			case m == DarkNetModel:
				model = DarkNet(seed)
			default:
				return nil, fmt.Errorf("nocbt: unknown sweep model %q", m)
			}
			input := SampleInput(model, seed+7)
			for _, g := range spec.Geometries {
				for _, p := range spec.Platforms {
					rs, err := sweepOrderings(p.Name, p.Build(g), model, input)
					if err != nil {
						return nil, err
					}
					for i := range rs {
						rs[i].Seed = seed
						rs[i].Workload = string(m)
					}
					all = append(all, rs...)
				}
			}
		}
	}
	return all, nil
}

// assertSweepMatchesSerial runs one spec through both paths and requires
// bit-identical rows.
func assertSweepMatchesSerial(t *testing.T, spec SweepSpec) {
	t.Helper()
	serial, err := runSweepSerial(spec)
	if err != nil {
		t.Fatalf("serial path: %v", err)
	}
	spec.Workers = 8 // force a real pool even on small machines
	concurrent, err := RunSweep(context.Background(), spec)
	if err != nil {
		t.Fatalf("sweep runner: %v", err)
	}
	if len(serial) != len(concurrent) {
		t.Fatalf("row counts differ: serial %d, sweep %d", len(serial), len(concurrent))
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], concurrent[i]) {
			t.Errorf("row %d differs:\nserial: %+v\nsweep:  %+v", i, serial[i], concurrent[i])
		}
	}
}

// TestFig12SweepMatchesSerial proves the Fig. 12 grid comes out
// bit-identical whether run serially or on the concurrent runner.
func TestFig12SweepMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 36 NoC inferences; skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("full Fig. 12 grid is too slow under the race detector; " +
			"TestRunSweepDeterministicAcrossWorkerCounts covers the contract race-enabled")
	}
	assertSweepMatchesSerial(t, fig12Spec(1, false))
}

// TestFig13SweepMatchesSerial does the same for the Fig. 13 model grid,
// which shares one materialized DarkNet across its concurrent jobs.
func TestFig13SweepMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 24 NoC inferences incl. DarkNet; skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("full Fig. 13 grid is too slow under the race detector; " +
			"TestRunSweepDeterministicAcrossWorkerCounts covers the contract race-enabled")
	}
	assertSweepMatchesSerial(t, fig13Spec(1, false))
}

// TestRunSweepDeterministicAcrossWorkerCounts pins the public API contract
// directly: worker count must not leak into results.
func TestRunSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 12 NoC inferences; skipped in -short mode")
	}
	spec := SweepSpec{
		Platforms:  []NamedPlatform{DefaultPlatform()},
		Geometries: []Geometry{Fixed8()},
		Models:     []SweepModel{LeNetModel},
		Seeds:      []int64{1, 5},
	}
	one := spec
	one.Workers = 1
	a, err := RunSweep(context.Background(), one)
	if err != nil {
		t.Fatal(err)
	}
	many := spec
	many.Workers = 6
	b, err := RunSweep(context.Background(), many)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("results differ across worker counts:\n1: %+v\n6: %+v", a, b)
	}
	if a[0].Seed != 1 || a[len(a)-1].Seed != 5 {
		t.Errorf("seeds not recorded in grid order: %+v", a)
	}
}

func TestRunSweepRejectsUnknownModel(t *testing.T) {
	_, err := RunSweep(context.Background(), SweepSpec{Models: []SweepModel{"resnet"}})
	if err == nil || !strings.Contains(err.Error(), "resnet") {
		t.Errorf("unknown model not rejected: %v", err)
	}
}

func TestSweepReportAndJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 3 NoC inferences; skipped in -short mode")
	}
	rows, err := RunSweep(context.Background(), SweepSpec{
		Platforms:  []NamedPlatform{DefaultPlatform()},
		Geometries: []Geometry{Fixed8()},
		Models:     []SweepModel{LeNetModel},
	})
	if err != nil {
		t.Fatal(err)
	}
	report := SweepReport(rows)
	for _, want := range []string{"4x4 MC2", "LeNet", "O0", "O2", "Reduction %"} {
		if !strings.Contains(report, want) {
			t.Errorf("sweep report missing %q:\n%s", want, report)
		}
	}
	b, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatalf("invalid sweep JSON: %v", err)
	}
	if len(decoded) != len(rows) || decoded[0]["model"] != "LeNet" {
		t.Errorf("unexpected sweep JSON: %v", decoded)
	}
	// The workload field must round-trip the grid name the caller used
	// (the -models vocabulary), not the display name.
	if decoded[0]["workload"] != string(LeNetModel) {
		t.Errorf("JSON workload = %v, want %q", decoded[0]["workload"], LeNetModel)
	}
}

// checkGolden compares got against testdata/<name>.golden, rewriting the
// file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run Golden -update .`): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}
