package noc

import (
	"encoding/json"
	"os"
	"testing"
)

// TestAllocRegressionGuard re-runs the BenchmarkStep* suite and fails if any
// benchmark's allocs/op exceeds the pooled budget recorded in the repository
// baseline (BENCH_noc.json `pooling.after`, plus `allocs_tolerance_per_op`).
// Allocation counts — unlike ns/op — are deterministic across machines, so
// this is the CI tripwire for pooling regressions: a dropped Release, a
// packet shell leaking from the free-list, or a kernel that starts
// allocating again shows up as a hard count, not a timing blip.
//
// The guard is opt-in (BENCH_ALLOC_GUARD=1) because it runs the full
// benchmark suite; CI enables it, plain `go test ./...` skips it.
func TestAllocRegressionGuard(t *testing.T) {
	if os.Getenv("BENCH_ALLOC_GUARD") == "" {
		t.Skip("set BENCH_ALLOC_GUARD=1 to run the allocation regression guard")
	}
	data, err := os.ReadFile("../../BENCH_noc.json")
	if err != nil {
		t.Fatal(err)
	}
	var baseline struct {
		Pooling struct {
			Tolerance int64 `json:"allocs_tolerance_per_op"`
			After     map[string]struct {
				AllocsPerOp int64 `json:"allocs_per_op"`
			} `json:"after"`
		} `json:"pooling"`
	}
	if err := json.Unmarshal(data, &baseline); err != nil {
		t.Fatal(err)
	}
	if len(baseline.Pooling.After) == 0 {
		t.Fatal("BENCH_noc.json has no pooling.after budgets")
	}

	benches := map[string]func(*testing.B){
		"BenchmarkStepIdle8x8":           BenchmarkStepIdle8x8,
		"BenchmarkStepAccelLike8x8":      BenchmarkStepAccelLike8x8,
		"BenchmarkStepSaturated8x8":      BenchmarkStepSaturated8x8,
		"BenchmarkStepSaturated8x8VC16":  BenchmarkStepSaturated8x8VC16,
		"BenchmarkStepSaturatedTorus8x8": BenchmarkStepSaturatedTorus8x8,
		"BenchmarkStepSaturatedCMesh8x8": BenchmarkStepSaturatedCMesh8x8,
		"BenchmarkStepSaturated4x4Wide":  BenchmarkStepSaturated4x4Wide,
	}
	for name, budget := range baseline.Pooling.After {
		fn, ok := benches[name]
		if !ok {
			t.Errorf("pooling.after names unknown benchmark %s", name)
			continue
		}
		r := testing.Benchmark(fn)
		limit := budget.AllocsPerOp + baseline.Pooling.Tolerance
		if got := r.AllocsPerOp(); got > limit {
			t.Errorf("%s: %d allocs/op, budget %d (+%d tolerance) — pooling regression",
				name, got, budget.AllocsPerOp, baseline.Pooling.Tolerance)
		} else {
			t.Logf("%s: %d allocs/op (budget %d+%d), %d ns/op",
				name, got, budget.AllocsPerOp, baseline.Pooling.Tolerance, r.NsPerOp())
		}
	}
}
