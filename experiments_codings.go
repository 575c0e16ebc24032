package nocbt

// The "codings" experiment sweeps the whole link-coding × ordering design
// space the paper sits in: every registered ordering strategy (the paper's
// O0/O1/O2 plus the related-work hamming-nn and popcount-asc entries)
// crossed with every registered link coding (plain binary, Gray, segmented
// bus-invert) on the paper workloads. It is the registry counterpart of
// Fig. 13: where the paper compares three orderings, this experiment
// compares the full strategy space — including the encoding family (§II)
// the ordering approach was designed to beat without extra wires.

import (
	"context"
	"fmt"

	"nocbt/internal/hwmodel"
)

func init() {
	MustRegister(NewExperiment("codings",
		"link-coding × ordering strategy comparison — BT for every registered strategy on the paper workloads",
		codingsResult))
}

// codingsOrderings returns the ordering axis of the codings experiment:
// every registered strategy, in wire-ID order (O0 first, so every group
// has its baseline).
func codingsOrderings() []Ordering {
	strategies := OrderingStrategies()
	out := make([]Ordering, len(strategies))
	for i, s := range strategies {
		out[i] = s.ID()
	}
	return out
}

// codingExtraLines returns the wires a registered link coding adds to a
// linkBits-wide link (0 when uncoded) — the §II wire overhead the link
// power columns price.
func codingExtraLines(coding string, linkBits int) (int, error) {
	scheme, ok := LookupLinkCoding(coding)
	if !ok {
		return 0, fmt.Errorf("nocbt: unknown link coding %q (registered: %v)", coding, LinkCodingNames())
	}
	if scheme == nil {
		return 0, nil
	}
	return scheme.ExtraLines(linkBits), nil
}

// codingsResult measures the strategy grid. Params: Seed and Trained as in
// fig13; Quick restricts the grid to LeNet. The geometry is the paper's
// fixed-8 default — the configuration whose O2 reduction is the paper's
// headline — keeping the grid affordable while both workloads run.
func codingsResult(ctx context.Context, p Params) (*Result, error) {
	p = p.withDefaults()
	models := []SweepModel{LeNetModel, DarkNetModel}
	if p.Quick {
		models = models[:1]
	}
	spec := SweepSpec{
		Platforms:  []NamedPlatform{DefaultPlatform()},
		Geometries: []Geometry{Fixed8()},
		Orderings:  codingsOrderings(),
		Models:     models,
		Trained:    p.Trained,
		Seeds:      []int64{p.Seed},
		Codings:    LinkCodingNames(),
	}
	rows, err := RunSweep(ctx, spec)
	if err != nil {
		return nil, err
	}

	// The comparison baseline for every strategy is the same model's plain
	// O0 run — the paper's reference point — not the per-coding baseline
	// the generic sweep reduction uses.
	type baseKey struct{ model, format string }
	baselines := make(map[baseKey]float64)
	for _, r := range rows {
		if r.Ordering == O0 && r.Coding == "none" {
			baselines[baseKey{r.Model, r.Geometry.Format.String()}] = float64(r.TotalBT)
		}
	}

	table := ResultTable{
		Name: "codings",
		Columns: []string{"Model", "Format", "Strategy", "Ordering", "Coding",
			"Extra lines", "Total BT", "Cycles", "Reduction % vs O0", "Link power mW"},
	}
	for _, r := range rows {
		extraLines, err := codingExtraLines(r.Coding, r.Geometry.LinkBits)
		if err != nil {
			return nil, err
		}
		strategy := r.Ordering.String()
		if r.Coding != "none" {
			strategy += "+" + r.Coding
		}
		reduction := 0.0
		if base, ok := baselines[baseKey{r.Model, r.Geometry.Format.String()}]; ok && base > 0 {
			reduction = 100 * (base - float64(r.TotalBT)) / base
		}
		// §V-C link power at this strategy's measured reduction rate, with
		// the coding's extra wires widening the toggling link — bus-invert
		// pays its §II wire overhead here, not just in the BT column. The
		// grid runs the paper's 128-bit fixed-8 links, the exact §V-C
		// configuration.
		power := hwmodel.PaperLinkModel(hwmodel.EnergyPerTransitionOurs).
			WithExtraLines(extraLines).
			ReducedPowerW(reduction/100) * 1000
		table.AddRow(r.Model, r.Geometry.Format.String(), strategy, r.Ordering.String(),
			r.Coding, extraLines, r.TotalBT, r.Cycles, reduction, power)
	}

	strategyNames := make([]string, 0, len(OrderingStrategies()))
	for _, s := range OrderingStrategies() {
		strategyNames = append(strategyNames, s.Name())
	}
	return &Result{
		Experiment: "codings",
		Title:      "Codings — link-coding × ordering strategy BT comparison (4x4 MC2, fixed-8)",
		Meta: map[string]any{
			"seed":      p.Seed,
			"trained":   p.Trained,
			"orderings": strategyNames,
			"codings":   LinkCodingNames(),
			"rows":      len(rows),
		},
		Tables: []ResultTable{table},
		Sections: []Section{
			TextSection("Codings — link-coding × ordering strategy BT comparison (4x4 MC2, fixed-8)\n"),
			TableSection(0),
			TextSection("\nProvenance: O0/O1/O2 are the paper's orderings; hamming-nn follows Li et al. 2020\n" +
				"(operands Hamming-distance ordering); popcount-asc is the Han et al. '1'-count\n" +
				"sorting-unit dual; gray and businvert are the encoding family of §II — businvert\n" +
				"pays its invert-line flips in BT and its extra wires in link power.\n"),
		},
	}, nil
}
