package nocbt

import (
	"strings"
	"testing"
)

// FuzzSweepAxesSpec feeds arbitrary names and integers into every SweepAxes
// field. Spec must never panic, and every spec it accepts must pass the
// validation RunSweep applies, so a grid the btexp flags or the btserved
// JSON API accept cannot fail as a run-time error. Each string argument is a
// comma-separated name list, so empty axes and duplicate entries are both
// reachable.
func FuzzSweepAxesSpec(f *testing.F) {
	f.Add("4x4", "fixed8", "o0,o2", "none", "lenet", "mesh", int64(1), 1, 0, 8, 4)
	f.Add("8x8mc4,8x8 MC8", "float32,fixed-8", "baseline,hamming-nn", "gray,businvert", "darknet", "torus,cmesh", int64(-3), 4, 2, 16, 0)
	f.Add("4x4,4x4mc2", "", "", "", "", "", int64(0), 1, 1, 0, 0)
	f.Add("", "", "", "", "lenet,LeNet", "", int64(0), 1, 1, 0, 0)
	f.Add("9x9", "fp64", "o9", "huffman", "resnet", "hypercube", int64(7), 0, -1, 7, 3)
	f.Fuzz(func(t *testing.T, platforms, formats, orderings, codings, models, topologies string,
		seed int64, batch1, batch2, prec1, prec2 int) {
		list := func(s string) []string {
			if s == "" {
				return nil
			}
			return strings.Split(s, ",")
		}
		axes := SweepAxes{
			Platforms:  list(platforms),
			Formats:    list(formats),
			Orderings:  list(orderings),
			Codings:    list(codings),
			Models:     list(models),
			Seeds:      []int64{seed},
			Batches:    []int{batch1, batch2},
			Precisions: []int{prec1, prec2},
			Topologies: list(topologies),
		}
		spec, err := axes.Spec(seed, false)
		if err != nil {
			return
		}
		internal, err := spec.withDefaults().toInternal()
		if err == nil {
			err = internal.Validate()
		}
		if err != nil {
			t.Fatalf("Spec accepted %+v but RunSweep's validation rejects it: %v", axes, err)
		}
	})
}
