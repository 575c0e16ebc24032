package nocbt_test

// One benchmark per paper table/figure plus the ablations listed in
// DESIGN.md §6. Each bench does one full unit of the experiment per
// iteration and reports the paper's metric (BT/flit, reduction %, …) via
// b.ReportMetric, so `go test -bench .` regenerates the evaluation's rows.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nocbt"
	"nocbt/internal/bitutil"
	"nocbt/internal/businvert"
	"nocbt/internal/core"
	"nocbt/internal/dnn"
	"nocbt/internal/flit"
	"nocbt/internal/hwmodel"
	"nocbt/internal/noc"
	"nocbt/internal/stats"
	"nocbt/internal/tensor"
)

// ---- Fig. 1: expectation surface ----------------------------------------

func BenchmarkFig1ExpectationGrid(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		grid := core.ExpectationGrid(32)
		sink += grid[16][16]
	}
	b.ReportMetric(core.ExpectedBT(16, 16, 32), "E(16,16,32)")
	_ = sink
}

// ---- Tab. I: BT reduction without NoC ------------------------------------

func benchTable1Row(b *testing.B, name string) {
	cfg := nocbt.DefaultTable1Config()
	cfg.Packets = 2000 // keep one iteration under a second; rates converge fast
	var row nocbt.Table1Row
	for i := 0; i < b.N; i++ {
		for _, r := range nocbt.Table1(cfg) {
			if r.Source.Name == name {
				row = r
			}
		}
	}
	b.ReportMetric(row.BaselineBT, "BT/flit-base")
	b.ReportMetric(row.OrderedBT, "BT/flit-ordered")
	b.ReportMetric(row.ReductionPct, "reduction-%")
}

// BenchmarkTable1 times one warm Tab. I at the paper's size: all four
// weight sources, 10,000 packets each, LeNet already trained.
func BenchmarkTable1(b *testing.B) {
	cfg := nocbt.DefaultTable1Config()
	nocbt.Table1(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table1Sink = nocbt.Table1(cfg)
	}
}

var table1Sink []nocbt.Table1Row

func BenchmarkTableIFloat32Random(b *testing.B)  { benchTable1Row(b, "Float-32 random") }
func BenchmarkTableIFixed8Random(b *testing.B)   { benchTable1Row(b, "Fixed-8 random") }
func BenchmarkTableIFloat32Trained(b *testing.B) { benchTable1Row(b, "Float-32 trained") }
func BenchmarkTableIFixed8Trained(b *testing.B)  { benchTable1Row(b, "Fixed-8 trained") }

// ---- Fig. 9/10/11: bit-level distributions --------------------------------

// benchExperimentText runs a registered experiment and renders its text
// form once per iteration.
func benchExperimentText(b *testing.B, name string, p nocbt.Params) {
	var n int
	for i := 0; i < b.N; i++ {
		res, err := nocbt.RunExperiment(context.Background(), name, p)
		if err != nil {
			b.Fatal(err)
		}
		text, err := nocbt.Render(res, nocbt.Text)
		if err != nil {
			b.Fatal(err)
		}
		n += len(text)
	}
	_ = n
}

func BenchmarkFig9PopcountGrid(b *testing.B) {
	benchExperimentText(b, "fig9", nocbt.Params{Flits: 20})
}

func BenchmarkFig10BitDistribution(b *testing.B) { benchExperimentText(b, "fig10", nocbt.Params{}) }

func BenchmarkFig11BitDistribution(b *testing.B) { benchExperimentText(b, "fig11", nocbt.Params{}) }

// ---- Fig. 12: NoC size sweep ----------------------------------------------

func benchNoCRun(b *testing.B, platform string, cfg nocbt.Platform, ord nocbt.Ordering) {
	model := nocbt.TrainedLeNet(1)
	input := nocbt.SampleInput(model, 7)
	base, err := nocbt.RunModelOnNoC(context.Background(), platform, cfg, nocbt.O0, model, input)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var r nocbt.NoCRunResult
	for i := 0; i < b.N; i++ {
		r, err = nocbt.RunModelOnNoC(context.Background(), platform, cfg, ord, model, input)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.TotalBT), "BT")
	b.ReportMetric(100*(1-float64(r.TotalBT)/float64(base.TotalBT)), "reduction-%")
	b.ReportMetric(float64(r.Cycles), "cycles")
}

func BenchmarkFig12NoC4x4MC2Fixed8O0(b *testing.B) {
	benchNoCRun(b, "4x4 MC2", nocbt.MustPlatform(nocbt.PaperOptions4x4MC2(nocbt.Fixed8())...), nocbt.O0)
}
func BenchmarkFig12NoC4x4MC2Fixed8O1(b *testing.B) {
	benchNoCRun(b, "4x4 MC2", nocbt.MustPlatform(nocbt.PaperOptions4x4MC2(nocbt.Fixed8())...), nocbt.O1)
}
func BenchmarkFig12NoC4x4MC2Fixed8O2(b *testing.B) {
	benchNoCRun(b, "4x4 MC2", nocbt.MustPlatform(nocbt.PaperOptions4x4MC2(nocbt.Fixed8())...), nocbt.O2)
}
func BenchmarkFig12NoC4x4MC2Float32O2(b *testing.B) {
	benchNoCRun(b, "4x4 MC2", nocbt.MustPlatform(nocbt.PaperOptions4x4MC2(nocbt.Float32())...), nocbt.O2)
}
func BenchmarkFig12NoC8x8MC4Fixed8O2(b *testing.B) {
	benchNoCRun(b, "8x8 MC4", nocbt.MustPlatform(nocbt.PaperOptions8x8MC4(nocbt.Fixed8())...), nocbt.O2)
}
func BenchmarkFig12NoC8x8MC8Fixed8O2(b *testing.B) {
	benchNoCRun(b, "8x8 MC8", nocbt.MustPlatform(nocbt.PaperOptions8x8MC8(nocbt.Fixed8())...), nocbt.O2)
}

// ---- Fig. 13: model sweep ---------------------------------------------------

func BenchmarkFig13LeNetFixed8O2(b *testing.B) {
	benchNoCRun(b, "4x4 MC2", nocbt.MustPlatform(nocbt.PaperOptions4x4MC2(nocbt.Fixed8())...), nocbt.O2)
}

func BenchmarkFig13DarkNetFixed8O2(b *testing.B) {
	// DarkNet with random weights: one inference is ~10× LeNet's traffic.
	model := nocbt.DarkNet(1)
	input := nocbt.SampleInput(model, 7)
	base, err := nocbt.RunModelOnNoC(context.Background(), "4x4 MC2", nocbt.MustPlatform(nocbt.PaperOptions4x4MC2(nocbt.Fixed8())...), nocbt.O0, model, input)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var r nocbt.NoCRunResult
	for i := 0; i < b.N; i++ {
		r, err = nocbt.RunModelOnNoC(context.Background(), "4x4 MC2", nocbt.MustPlatform(nocbt.PaperOptions4x4MC2(nocbt.Fixed8())...), nocbt.O2, model, input)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.TotalBT), "BT")
	b.ReportMetric(100*(1-float64(r.TotalBT)/float64(base.TotalBT)), "reduction-%")
}

// ---- Tab. II and §V-C -------------------------------------------------------

func BenchmarkTableIIHardware(b *testing.B) {
	unit := hwmodel.OrderingUnitSpec{Lanes: 16, LaneBits: 8, Affiliated: true}
	router := hwmodel.PaperRouter()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += unit.GE() + router.GE()
	}
	b.ReportMetric(unit.GE()/1000, "unit-kGE")
	b.ReportMetric(router.GE()/1000, "router-kGE")
	b.ReportMetric(unit.PowerW(125e6, 1)*1000, "unit-mW")
	b.ReportMetric(router.PowerW(125e6, 1)*1000, "router-mW")
	_ = sink
}

func BenchmarkLinkPower(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		m := hwmodel.PaperLinkModel(hwmodel.EnergyPerTransitionOurs)
		sink += m.ReducedPowerW(0.4085)
	}
	m := hwmodel.PaperLinkModel(hwmodel.EnergyPerTransitionOurs)
	b.ReportMetric(m.PowerW()*1000, "link-mW")
	b.ReportMetric(m.ReducedPowerW(0.4085)*1000, "reduced-mW")
	_ = sink
}

// ---- Ablations (DESIGN.md §6) ------------------------------------------------

func randWords(n, width int, seed int64) []bitutil.Word {
	rng := rand.New(rand.NewSource(seed))
	mask := uint64(1)<<uint(width) - 1
	out := make([]bitutil.Word, n)
	for i := range out {
		out[i] = bitutil.Word(rng.Uint64() & mask)
	}
	return out
}

// BenchmarkAblationPacking compares sequential vs column-major placement of
// an ordered packet's values across its flits.
func BenchmarkAblationPacking(b *testing.B) {
	words := randWords(32, 8, 1)
	ordered, _ := core.OrderDescending(words, 8)
	var seqBT, colBT int
	for i := 0; i < b.N; i++ {
		seqBT = core.StreamTransitions(core.PackSequential(ordered, 8, 0), 8)
		colBT = core.StreamTransitions(core.DistributeColumnMajor(ordered, 4, 8, 0), 8)
	}
	b.ReportMetric(float64(seqBT), "BT-sequential")
	b.ReportMetric(float64(colBT), "BT-column-major")
}

// BenchmarkAblationDirection compares descending, ascending and unordered
// streams.
func BenchmarkAblationDirection(b *testing.B) {
	words := randWords(4000, 8, 2)
	var desc, asc, none int
	for i := 0; i < b.N; i++ {
		ordered, _ := core.OrderDescending(words, 8)
		none = core.StreamTransitions(core.PackSequential(words, 8, 0), 8)
		desc = core.StreamTransitions(core.PackSequential(ordered, 8, 0), 8)
		// Ascending = reversed descending.
		rev := make([]bitutil.Word, len(ordered))
		for j := range ordered {
			rev[j] = ordered[len(ordered)-1-j]
		}
		asc = core.StreamTransitions(core.PackSequential(rev, 8, 0), 8)
	}
	b.ReportMetric(float64(none), "BT-unordered")
	b.ReportMetric(float64(desc), "BT-descending")
	b.ReportMetric(float64(asc), "BT-ascending")
}

// BenchmarkAblationScope compares per-packet ordering (what the hardware
// unit does) against whole-stream ordering (the no-NoC upper bound).
func BenchmarkAblationScope(b *testing.B) {
	words := randWords(4000, 8, 3)
	var perPacket, global int
	for i := 0; i < b.N; i++ {
		// Global.
		ordered, _ := core.OrderDescending(words, 8)
		global = core.StreamTransitions(core.PackSequential(ordered, 8, 0), 8)
		// Per 32-value packet.
		var flits [][]bitutil.Word
		for off := 0; off < len(words); off += 32 {
			pkt, _ := core.OrderDescending(words[off:off+32], 8)
			flits = append(flits, core.PackSequential(pkt, 8, 0)...)
		}
		perPacket = core.StreamTransitions(flits, 8)
	}
	b.ReportMetric(float64(global), "BT-global")
	b.ReportMetric(float64(perPacket), "BT-per-packet")
}

// BenchmarkAblationInBandIndex measures what separated-ordering loses when
// its re-pairing index must travel in-band as extra flits.
func BenchmarkAblationInBandIndex(b *testing.B) {
	model := nocbt.LeNet(1)
	input := nocbt.SampleInput(model, 7)
	run := func(inBand bool) int64 {
		cfg := nocbt.MustPlatform(nocbt.PaperOptions4x4MC2(nocbt.Fixed8())...)
		cfg.Ordering = nocbt.O2
		cfg.InBandIndex = inBand
		eng, err := nocbt.NewEngine(cfg, model)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Infer(context.Background(), input); err != nil {
			b.Fatal(err)
		}
		return eng.TotalBT()
	}
	var inBand, outBand int64
	for i := 0; i < b.N; i++ {
		outBand = run(false)
		inBand = run(true)
	}
	b.ReportMetric(float64(outBand), "BT-out-of-band")
	b.ReportMetric(float64(inBand), "BT-in-band")
}

// BenchmarkAblationVC varies the virtual-channel count: more VCs interleave
// more packets on each link, diluting per-packet ordering.
func BenchmarkAblationVC(b *testing.B) {
	model := nocbt.LeNet(1)
	input := nocbt.SampleInput(model, 7)
	run := func(vcs int, ord nocbt.Ordering) int64 {
		cfg := nocbt.MustPlatform(nocbt.PaperOptions4x4MC2(nocbt.Fixed8())...)
		cfg.Mesh.VCs = vcs
		cfg.Ordering = ord
		eng, err := nocbt.NewEngine(cfg, model)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Infer(context.Background(), input); err != nil {
			b.Fatal(err)
		}
		return eng.TotalBT()
	}
	var red1, red4 float64
	for i := 0; i < b.N; i++ {
		red1 = 100 * (1 - float64(run(1, nocbt.O2))/float64(run(1, nocbt.O0)))
		red4 = 100 * (1 - float64(run(4, nocbt.O2))/float64(run(4, nocbt.O0)))
	}
	b.ReportMetric(red1, "reduction-%-1VC")
	b.ReportMetric(red4, "reduction-%-4VC")
}

// BenchmarkAblationSortAlgo compares the hardware latency of the sorting
// network choices §III-B leaves open.
func BenchmarkAblationSortAlgo(b *testing.B) {
	unit := hwmodel.OrderingUnitSpec{Lanes: 16, LaneBits: 8}
	var sink int
	for i := 0; i < b.N; i++ {
		sink += unit.SortLatencyCycles(hwmodel.BubbleSort, false)
	}
	b.ReportMetric(float64(unit.SortLatencyCycles(hwmodel.BubbleSort, false)), "bubble-cycles")
	b.ReportMetric(float64(unit.SortLatencyCycles(hwmodel.BitonicSort, false)), "bitonic-cycles")
	b.ReportMetric(float64(unit.SortLatencyCycles(hwmodel.MergeSort, false)), "merge-cycles")
	_ = sink
}

// BenchmarkAblationVsBusInvert compares '1'-bit-count ordering against
// bus-invert coding (Stan & Burleson, the paper's §II baseline family) on
// the same weight stream. Ordering needs no extra wires; bus-invert adds
// one invert line per segment.
func BenchmarkAblationVsBusInvert(b *testing.B) {
	words := randWords(8000, 8, 8)
	toVecs := func(flits [][]bitutil.Word) []bitutil.Vec {
		out := make([]bitutil.Vec, len(flits))
		for i, f := range flits {
			out[i] = bitutil.PackWords(f, 8, 64)
		}
		return out
	}
	var raw, orderedBT, busInvBT int
	for i := 0; i < b.N; i++ {
		baseline := core.PackSequential(words, 8, 0)
		raw = core.StreamTransitions(baseline, 8)
		ordered, _ := core.OrderDescending(words, 8)
		orderedBT = core.StreamTransitions(core.PackSequential(ordered, 8, 0), 8)
		var err error
		busInvBT, err = businvert.StreamTransitions(toVecs(baseline), 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(raw), "BT-raw")
	b.ReportMetric(float64(orderedBT), "BT-ordered")
	b.ReportMetric(float64(busInvBT), "BT-businvert")
}

// ---- Batched inference engine ------------------------------------------------

// batchBenchWorkload is the compute-bound regime the batch engine targets:
// a small, layer-heavy model on the 8×8/MC8 platform with a
// one-MAC-per-cycle PE, so layer tails dominate and a serial mesh idles.
func batchBenchWorkload() (nocbt.Platform, *dnn.Model, []*tensor.Tensor) {
	rng := rand.New(rand.NewSource(1))
	model := &dnn.Model{
		ModelName: "micro",
		InShape:   []int{1, 12, 12},
		Layers: []dnn.Layer{
			dnn.NewConv2D(1, 4, 3, 1, 1, rng),
			dnn.NewReLU(),
			dnn.NewMaxPool2(),
			dnn.NewConv2D(4, 8, 3, 1, 1, rng),
			dnn.NewReLU(),
			dnn.NewMaxPool2(),
			dnn.NewFlatten(),
			dnn.NewLinear(8*3*3, 10, rng),
		},
	}
	inputs := make([]*tensor.Tensor, 8)
	for i := range inputs {
		x := tensor.New(model.InShape...)
		x.Uniform(0, 1, rand.New(rand.NewSource(int64(10+i))))
		inputs[i] = x
	}
	cfg := nocbt.MustPlatform(nocbt.PaperOptions8x8MC8(nocbt.Fixed8())...)
	cfg.PEComputeCycles = 64
	return cfg, model, inputs
}

// BenchmarkInferSerial is the reference: the batch executed as one Infer
// call per input. Reports simulated cycles per inference — the hardware
// figure-of-merit the simulator exists to measure.
func BenchmarkInferSerial(b *testing.B) {
	cfg, model, inputs := batchBenchWorkload()
	b.ReportAllocs()
	var cycles int64
	for i := 0; i < b.N; i++ {
		eng, err := nocbt.NewEngine(cfg, model)
		if err != nil {
			b.Fatal(err)
		}
		for _, in := range inputs {
			if _, err := eng.Infer(context.Background(), in); err != nil {
				b.Fatal(err)
			}
		}
		cycles = eng.Cycles()
	}
	b.ReportMetric(float64(cycles)/float64(len(inputs)), "cycles/inference")
	b.ReportMetric(float64(len(inputs))*1000/float64(cycles), "inf/kcycle")
}

// BenchmarkInferBatch runs the same inputs through Engine.InferBatch under
// PipelinedLayers, all inferences sharing the mesh. The inf/kcycle metric
// must be ≥1.5× the serial benchmark's (pinned exactly by
// TestInferBatchThroughput in internal/accel).
func BenchmarkInferBatch(b *testing.B) {
	cfg, model, inputs := batchBenchWorkload()
	cfg.LayerMode = nocbt.PipelinedLayers
	b.ReportAllocs()
	var st nocbt.BatchStats
	for i := 0; i < b.N; i++ {
		eng, err := nocbt.NewEngine(cfg, model)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.InferBatch(context.Background(), inputs); err != nil {
			b.Fatal(err)
		}
		st = eng.LastBatchStats()
	}
	b.ReportMetric(float64(st.Cycles)/float64(st.Inferences), "cycles/inference")
	b.ReportMetric(st.Throughput(), "inf/kcycle")
	b.ReportMetric(st.AvgLatencyCycles, "avg-latency-cycles")
}

// ---- BENCH_noc.json baseline --------------------------------------------------

// stepBenchSim replicates internal/noc's Step benchmark workloads through
// the package API so the baseline emitter can measure them from here.
// topology/concentration select the interconnect scheme ("" = mesh); the
// traffic pattern is identical across schemes so the per-topology section
// compares stepping cost, not workload shape.
func stepBenchSim(b *testing.B, idle bool, topology string, concentration int) {
	s, err := noc.New(noc.Config{
		Width: 8, Height: 8,
		Topology: topology, Concentration: concentration,
		VCs: 4, BufDepth: 4, LinkBits: 128,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var id uint64
	mkPacket := func(src, dst int) *flit.Packet {
		id++
		payloads := make([]bitutil.Vec, 4)
		for i := range payloads {
			v := bitutil.NewVec(128)
			v.SetField(0, 64, rng.Uint64())
			v.SetField(64, 64, rng.Uint64())
			payloads[i] = v
		}
		hdr := bitutil.NewVec(128)
		hdr.SetField(0, 32, uint64(id))
		return flit.NewPacket(id, src, dst, hdr, payloads)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switch {
		case idle && i%256 == 0:
			if err := s.Inject(mkPacket(0, 63)); err != nil {
				b.Fatal(err)
			}
		case !idle && i%16 == 0:
			for n := 0; n < 64; n++ {
				if err := s.Inject(mkPacket(n, (n+17)%64)); err != nil {
					b.Fatal(err)
				}
			}
		}
		s.Step()
		if i%64 == 63 {
			for n := 0; n < 64; n++ {
				s.PopEjected(n)
			}
		}
	}
}

// TestEmitNoCBenchBaseline regenerates the NoC benchmark baseline when
// BENCH_NOC_JSON names an output path (CI does; see
// .github/workflows/ci.yml). The committed BENCH_noc.json at the
// repository root was produced this way, with the pre-optimization Step
// numbers recorded alongside for comparison.
func TestEmitNoCBenchBaseline(t *testing.T) {
	path := os.Getenv("BENCH_NOC_JSON")
	if path == "" {
		t.Skip("set BENCH_NOC_JSON=<path> to emit the benchmark baseline")
	}
	idle := testing.Benchmark(func(b *testing.B) { stepBenchSim(b, true, "", 0) })
	busy := testing.Benchmark(func(b *testing.B) { stepBenchSim(b, false, "", 0) })

	// Per-topology saturated stepping cost on the same 8×8 terminal grid and
	// traffic pattern; "mesh" repeats the busy number so the section is
	// self-contained.
	perTopo := map[string]interface{}{}
	for _, tc := range []struct {
		name          string
		topology      string
		concentration int
	}{{"mesh", "", 0}, {"torus", "torus", 0}, {"cmesh", "cmesh", 4}} {
		r := testing.Benchmark(func(b *testing.B) { stepBenchSim(b, false, tc.topology, tc.concentration) })
		perTopo[tc.name] = float64(r.T.Nanoseconds()) / float64(r.N)
	}

	cfg, model, inputs := batchBenchWorkload()
	serialEng, err := nocbt.NewEngine(cfg, model)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range inputs {
		if _, err := serialEng.Infer(context.Background(), in); err != nil {
			t.Fatal(err)
		}
	}
	cfg.LayerMode = nocbt.PipelinedLayers
	batchEng, err := nocbt.NewEngine(cfg, model)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := batchEng.InferBatch(context.Background(), inputs); err != nil {
		t.Fatal(err)
	}
	st := batchEng.LastBatchStats()

	// Precision axis headline: the same LeNet inference at each fixed lane
	// width, O0/uncoded so the numbers isolate the width effect. Narrower
	// lanes pack more values per 128-bit flit, so flits (and link energy)
	// fall as the width shrinks.
	precRows, err := nocbt.RunSweep(context.Background(), nocbt.SweepSpec{
		Platforms:  []nocbt.NamedPlatform{nocbt.DefaultPlatform()},
		Geometries: []nocbt.Geometry{nocbt.Fixed8()},
		Orderings:  []nocbt.Ordering{nocbt.O0},
		Codings:    []string{"none"},
		Models:     []nocbt.SweepModel{nocbt.LeNetModel},
		Seeds:      []int64{1},
		Precisions: nocbt.FixedWidths(),
	})
	if err != nil {
		t.Fatal(err)
	}
	energy := hwmodel.DefaultEnergyParams()
	perWidth := map[string]interface{}{}
	for _, r := range precRows {
		b := energy.Estimate(hwmodel.Activity{
			MACBitOps:       r.MACBitOps,
			WeightRegBits:   r.WeightRegBits,
			DispatcherBits:  r.FlitBits,
			LinkTransitions: r.TotalBT,
		})
		perWidth[fmt.Sprintf("%d", r.Precision)] = map[string]interface{}{
			"total_bt":         r.TotalBT,
			"flits":            r.Flits,
			"pj_per_inference": b.TotalJ() * 1e12,
		}
	}

	updates := map[string]interface{}{
		"schema": "nocbt-bench-noc/v1",
		"sim_step_ns_per_cycle": map[string]interface{}{
			"idle_8x8":      float64(idle.T.Nanoseconds()) / float64(idle.N),
			"saturated_8x8": float64(busy.T.Nanoseconds()) / float64(busy.N),
		},
		"sim_step_topology": map[string]interface{}{
			"workload":               "saturated 8x8 terminal grid, 128-bit links, fixed-stride traffic",
			"saturated_ns_per_cycle": perTopo,
		},
		"precision": map[string]interface{}{
			"workload":  "LeNet untrained seed 1, 4x4 MC2, 128-bit links, O0/uncoded, uniform lane width",
			"per_width": perWidth,
		},
		"infer": map[string]interface{}{
			"workload":                  "micro 8-layer net, 8x8 MC8 fixed-8, PEComputeCycles=64, batch=8",
			"serial_cycles":             serialEng.Cycles(),
			"batch_cycles":              st.Cycles,
			"speedup":                   float64(serialEng.Cycles()) / float64(st.Cycles),
			"throughput_inf_per_kcycle": st.Throughput(),
			"avg_latency_cycles":        st.AvgLatencyCycles,
		},
	}
	if err := mergeBenchBaseline(path, updates); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}

// mergeBenchBaseline folds the emitter-owned sections into whatever JSON
// document already exists at path and writes the result back. Sections the
// emitter does not own — the hand-curated sim_step_optimization history, the
// pooling baseline the alloc regression guard reads, notes, and any future
// keys — pass through untouched, so rerunning the emitter never erases them.
// A missing file starts from an empty document.
func mergeBenchBaseline(path string, updates map[string]interface{}) error {
	doc := map[string]interface{}{}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &doc); err != nil {
			return fmt.Errorf("existing baseline %s: %w", path, err)
		}
	case !os.IsNotExist(err):
		return err
	}
	for k, v := range updates {
		doc[k] = v
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// TestBenchBaselineMergePreservesCuratedSections is the round-trip pin for
// the emitter's merge behavior: rerunning TestEmitNoCBenchBaseline over a
// baseline file must replace only the sections the emitter owns and keep the
// hand-curated ones (sim_step_optimization, pooling, note) byte-for-byte —
// an emitter that clobbers the file erases the before/after optimization
// history that cannot be regenerated.
func TestBenchBaselineMergePreservesCuratedSections(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_noc.json")
	curated := map[string]interface{}{
		"schema": "nocbt-bench-noc/v0", // stale: the emitter owns this key
		"note":   "hand-written commentary that must survive",
		"sim_step_optimization": map[string]interface{}{
			"before": map[string]interface{}{"BenchmarkStepSaturated8x8": map[string]interface{}{"ns_per_op": 999.0}},
			"after":  map[string]interface{}{"BenchmarkStepSaturated8x8": map[string]interface{}{"ns_per_op": 111.0}},
		},
		"pooling": map[string]interface{}{
			"after": map[string]interface{}{"BenchmarkStepSaturated8x8": map[string]interface{}{"allocs_per_op": 1.0}},
		},
		"flitize": map[string]interface{}{
			"allocs_tolerance_per_op": 1.0,
			"budgets":                 map[string]interface{}{"BenchmarkFlitizeRoundTrip4Bit": map[string]interface{}{"allocs_per_op": 0.0}},
		},
		"sim_step_ns_per_cycle": map[string]interface{}{"idle_8x8": 1.0}, // stale: emitter-owned
	}
	seed, err := json.Marshal(curated)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, seed, 0o644); err != nil {
		t.Fatal(err)
	}

	updates := map[string]interface{}{
		"schema":                "nocbt-bench-noc/v1",
		"sim_step_ns_per_cycle": map[string]interface{}{"idle_8x8": 2.0, "saturated_8x8": 3.0},
		"sim_step_topology":     map[string]interface{}{"saturated_ns_per_cycle": map[string]interface{}{"torus": 5.0}},
		"infer":                 map[string]interface{}{"serial_cycles": 7.0},
	}
	if err := mergeBenchBaseline(path, updates); err != nil {
		t.Fatal(err)
	}

	read := func() map[string]interface{} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]interface{}{}
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatal(err)
		}
		return got
	}
	got := read()
	for _, curatedKey := range []string{"note", "sim_step_optimization", "pooling", "flitize"} {
		if !reflect.DeepEqual(got[curatedKey], curated[curatedKey]) {
			t.Errorf("curated section %q changed by merge:\ngot  %#v\nwant %#v", curatedKey, got[curatedKey], curated[curatedKey])
		}
	}
	for updatedKey, want := range updates {
		if !reflect.DeepEqual(got[updatedKey], want) {
			t.Errorf("emitter-owned section %q not replaced:\ngot  %#v\nwant %#v", updatedKey, got[updatedKey], want)
		}
	}

	// Round trip: merging the same updates again must be a fixed point.
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := mergeBenchBaseline(path, updates); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("second merge with identical updates changed the file")
	}

	// The committed repo baseline must itself survive a no-op merge: its
	// curated sections are exactly what the emitter must not own.
	repoData, err := os.ReadFile("BENCH_noc.json")
	if err != nil {
		t.Fatal(err)
	}
	repoDoc := map[string]interface{}{}
	if err := json.Unmarshal(repoData, &repoDoc); err != nil {
		t.Fatal(err)
	}
	if _, ok := repoDoc["sim_step_optimization"]; !ok {
		t.Error("committed BENCH_noc.json lost its sim_step_optimization history")
	}
	if _, ok := repoDoc["pooling"]; !ok {
		t.Error("committed BENCH_noc.json has no pooling section for the alloc guard")
	}
}

// ---- Micro-benchmarks of the hot paths ---------------------------------------

func BenchmarkOrderDescending(b *testing.B) {
	words := randWords(4096, 8, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.OrderDescending(words, 8)
	}
}

var (
	pairsSink []core.Pair
	sepSink   core.Separated
	flitsSink [][]bitutil.Word
)

func BenchmarkAffiliatedOrder(b *testing.B) {
	pairs := core.ZipPairs(randWords(4096, 8, 4), randWords(4096, 8, 5))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pairsSink, _ = core.AffiliatedOrder(pairs, 8)
	}
}

func BenchmarkSeparatedOrder(b *testing.B) {
	weights, inputs := randWords(4096, 8, 4), randWords(4096, 8, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sepSink = core.SeparatedOrder(weights, inputs, 8)
	}
}

func BenchmarkPackSequential(b *testing.B) {
	words := randWords(8000, 8, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		flitsSink = core.PackSequential(words, 8, 0)
	}
}

func BenchmarkVecTransitions(b *testing.B) {
	a := bitutil.NewVec(512)
	c := bitutil.NewVec(512)
	for i := 0; i < 512; i += 3 {
		c.SetBit(i, true)
	}
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += a.Transitions(c)
	}
	_ = sink
}

func BenchmarkFlitize(b *testing.B) {
	g := flit.Fixed8Geometry()
	task := flit.Task{
		Inputs:  randWords(25, 8, 5),
		Weights: randWords(25, 8, 6),
		Bias:    1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := flit.Flitize(g, task, flit.Options{Ordering: flit.Separated}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransitionDist(b *testing.B) {
	words := randWords(8000, 8, 7)
	flits := core.PackSequential(words, 8, 0)
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += stats.TransitionDist(flits, 8).Mean()
	}
	_ = sink
}
