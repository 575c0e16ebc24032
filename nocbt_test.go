package nocbt

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"

	"nocbt/internal/train"
)

func TestLeNetDeterministicPerSeed(t *testing.T) {
	a := LeNet(3)
	b := LeNet(3)
	wa, wb := a.WeightValues(), b.WeightValues()
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatal("same seed produced different weights")
		}
	}
	c := LeNet(4)
	if c.WeightValues()[0] == wa[0] {
		t.Error("different seeds produced identical first weight")
	}
}

func TestSampleInputShapeMatchesModel(t *testing.T) {
	m := LeNet(1)
	x := SampleInput(m, 2)
	if x.Rank() != 3 || x.Dim(0) != 1 || x.Dim(1) != 32 || x.Dim(2) != 32 {
		t.Errorf("LeNet input shape %v", x.Shape())
	}
	d := DarkNet(1)
	xd := SampleInput(d, 2)
	if xd.Dim(0) != 3 || xd.Dim(1) != 64 {
		t.Errorf("DarkNet input shape %v", xd.Shape())
	}
}

// TestSampleInputNegativeSeed is the regression test for the negative-seed
// panic: seed%10 is negative for negative seeds in Go, and the old
// 1+int(seed%10) sample count made SyntheticDigits allocate a
// negative-capacity slice ("makeslice: cap out of range").
func TestSampleInputNegativeSeed(t *testing.T) {
	m := LeNet(1)
	for _, seed := range []int64{-1, -7, -10, -9999999999} {
		x := SampleInput(m, seed)
		if x == nil || x.Rank() != 3 {
			t.Fatalf("seed %d: bad sample input", seed)
		}
	}
	// The fix must not disturb existing non-negative seeds: the residue
	// normalization is the identity for seed >= 0.
	for _, seed := range []int64{0, 3, 19} {
		a, b := SampleInput(m, seed), SampleInput(m, seed)
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				t.Fatalf("seed %d: SampleInput not deterministic", seed)
			}
		}
	}
}

// TestSampleInputDerivedFromRng pins the fix for SampleInput always
// returning the *last* synthetic digit regardless of the rng: the sample
// index is now drawn from the seed's private rng. The sums below were
// recorded when the fix landed; they pin both seed-determinism and the
// rng-derived choice (for these seeds the picked digit is not the last
// one, which the old implementation always returned).
func TestSampleInputDerivedFromRng(t *testing.T) {
	m := LeNet(1)
	sum := func(x *Tensor) float64 {
		var s float64
		for _, v := range x.Data {
			s += float64(v)
		}
		return s
	}
	pinned := map[int64]float64{
		1: 150.285995, // rng picks digit 0 of 2; the last digit sums to 123.484301
		2: 74.286121,  // rng picks digit 1 of 3; the last digit sums to 69.013895
	}
	for seed, want := range pinned {
		got := sum(SampleInput(m, seed))
		if diff := got - want; diff > 1e-3 || diff < -1e-3 {
			t.Errorf("seed %d: SampleInput sum = %.6f, want %.6f", seed, got, want)
		}
	}
	// rng-derived choice must differ from the old always-the-last behavior
	// for at least one seed: seed 1 synthesizes 2 digits and picks index 0.
	rng := rand.New(rand.NewSource(1))
	ds := train.SyntheticDigits(2, m.InShape, rng)
	if got, last := sum(SampleInput(m, 1)), sum(ds.Samples[len(ds.Samples)-1].Image); got == last {
		t.Errorf("SampleInput(1) still returns the last synthetic digit (sum %.6f)", got)
	}
}

// TestRunModelBatchOnNoC exercises the public batch measurement path and
// its consistency with the serial row arithmetic.
func TestRunModelBatchOnNoC(t *testing.T) {
	m := LeNet(1)
	in := SampleInput(m, 3)
	serial, err := RunModelOnNoC(context.Background(), "4x4 MC2", DefaultPlatform().Build(Fixed8()), O2, m, in)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Batch != 1 || serial.Throughput <= 0 || serial.AvgLatencyCycles != float64(serial.Cycles) {
		t.Fatalf("serial row malformed: %+v", serial)
	}
	batch, err := RunModelBatchOnNoC(context.Background(), "4x4 MC2", DefaultPlatform().Build(Fixed8()), O2, m, in, 2)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Batch != 2 || batch.Throughput <= 0 || batch.AvgLatencyCycles <= 0 {
		t.Fatalf("batch row malformed: %+v", batch)
	}
	if batch.Packets != 2*serial.Packets {
		t.Errorf("batch packets %d, want %d", batch.Packets, 2*serial.Packets)
	}
	// Sharing the mesh must not be slower than two serial inferences.
	if batch.Cycles > 2*serial.Cycles {
		t.Errorf("batch cycles %d above 2x serial %d", batch.Cycles, 2*serial.Cycles)
	}
	// batch 1 delegates to the serial row; non-positive sizes are errors.
	one, err := RunModelBatchOnNoC(context.Background(), "4x4 MC2", DefaultPlatform().Build(Fixed8()), O2, m, in, 1)
	if err != nil {
		t.Fatal(err)
	}
	if one != serial {
		t.Errorf("batch-1 row %+v differs from serial row %+v", one, serial)
	}
	if _, err := RunModelBatchOnNoC(context.Background(), "4x4 MC2", DefaultPlatform().Build(Fixed8()), O2, m, in, 0); err == nil {
		t.Error("batch size 0 not rejected")
	}
}

// TestDirectRunsMatchSweepRow pins one with-NoC row across its three entry
// points: RunModelOnNoC, RunModelBatchOnNoC and the sweep runner must
// report the same labels and counters for the same grid point, including
// the canonical coding and topology names and the router-flit count.
func TestDirectRunsMatchSweepRow(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 4 torus NoC inferences; skipped in -short mode")
	}
	cfg, err := NewPlatform(append(PaperOptions4x4MC2(Fixed8()),
		WithTopology("torus"), WithLinkCoding("Gray"))...)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 1
	model := LeNet(seed)
	input := SampleInput(model, seed+7)
	for _, batch := range []int{1, 2} {
		var direct NoCRunResult
		if batch == 1 {
			direct, err = RunModelOnNoC(context.Background(), "torus 4x4", cfg, O2, model, input)
		} else {
			direct, err = RunModelBatchOnNoC(context.Background(), "torus 4x4", cfg, O2, model, input, batch)
		}
		if err != nil {
			t.Fatal(err)
		}
		// The fields runSweepSerial fills in after the direct call.
		direct.Seed = seed
		direct.Workload = string(LeNetModel)
		rows, err := RunSweep(context.Background(), SweepSpec{
			Platforms:  []NamedPlatform{FixedPlatform("torus 4x4", cfg)},
			Geometries: []Geometry{Fixed8()},
			Orderings:  []Ordering{O2},
			Seeds:      []int64{seed},
			Batches:    []int{batch},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 {
			t.Fatalf("batch %d: sweep returned %d rows, want 1", batch, len(rows))
		}
		if !reflect.DeepEqual(direct, rows[0]) {
			t.Errorf("batch %d: direct row differs from sweep row:\ndirect: %+v\nsweep:  %+v", batch, direct, rows[0])
		}
	}
}

func TestGeometryPresets(t *testing.T) {
	if Float32().LinkBits != 512 || Fixed8().LinkBits != 128 {
		t.Error("geometry presets wrong")
	}
	if len(Orderings()) != 3 {
		t.Error("orderings wrong")
	}
}

func TestPlatformPresets(t *testing.T) {
	p := DefaultPlatform().Build(Fixed8())
	if p.Mesh.Width != 4 || len(p.MCs) != 2 {
		t.Errorf("4x4MC2 = %+v", p)
	}
	if p8 := PaperPlatforms()[2].Build(Float32()); p8.Mesh.Width != 8 || len(p8.MCs) != 8 {
		t.Errorf("8x8MC8 wrong")
	}
}

// experimentText runs a registered experiment and renders its text form.
func experimentText(t *testing.T, name string, p Params) string {
	t.Helper()
	res, err := RunExperiment(context.Background(), name, p)
	if err != nil {
		t.Fatal(err)
	}
	text, err := Render(res, Text)
	if err != nil {
		t.Fatal(err)
	}
	return text
}

func TestFig1Report(t *testing.T) {
	out := experimentText(t, "fig1", Params{Step: 8})
	if !strings.Contains(out, "E = x + y - xy/16") {
		t.Error("Fig. 1 formula missing")
	}
	// Corner values: E(32,0) = 32.0 appears; E(0,0) = 0.0.
	if !strings.Contains(out, "32.0") || !strings.Contains(out, "0.0") {
		t.Errorf("Fig. 1 grid values missing:\n%s", out)
	}
}

func TestTable1SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("uses trained LeNet; skipped in -short mode")
	}
	cfg := Table1Config{Packets: 300, KernelSize: 25, LanesPerFlit: 8, Seed: 1}
	rows := Table1(cfg)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.BaselineBT <= 0 || r.OrderedBT <= 0 {
			t.Errorf("%s: degenerate BT values %v/%v", r.Source.Name, r.BaselineBT, r.OrderedBT)
		}
		if r.OrderedBT >= r.BaselineBT {
			t.Errorf("%s: ordering did not reduce BT (%v -> %v)",
				r.Source.Name, r.BaselineBT, r.OrderedBT)
		}
	}
	// The paper's headline shape: fixed-8 trained shows the largest
	// reduction of all four rows.
	best := rows[0]
	for _, r := range rows[1:] {
		if r.ReductionPct > best.ReductionPct {
			best = r
		}
	}
	if best.Source.Name != "Fixed-8 trained" {
		t.Errorf("largest reduction is %s (%.1f%%), paper says Fixed-8 trained",
			best.Source.Name, best.ReductionPct)
	}
}

// TestTable1AllocsIndependentOfStreamLength: Tab. I allocates a fixed
// number of buffers per weight source, however long the stream. A
// per-flit or per-comparison allocation would make the 5,000-packet count
// ten times the 500-packet one's excess and fail here. The collector is
// off while counting: each GC cycle empties the sync.Pools behind fmt, and
// a longer stream runs more cycles, so refilling them would otherwise
// count a few extra objects.
func TestTable1AllocsIndependentOfStreamLength(t *testing.T) {
	if testing.Short() {
		t.Skip("uses trained LeNet; skipped in -short mode")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(packets int) float64 {
		cfg := DefaultTable1Config()
		cfg.Packets = packets
		Table1(cfg) // train and memoize LeNet outside the count
		return testing.AllocsPerRun(2, func() { Table1(cfg) })
	}
	short, long := allocs(500), allocs(5000)
	if math.Abs(long-short) > 2 {
		t.Errorf("Table1 allocates %.0f objects at 500 packets but %.0f at 5000", short, long)
	}
}

func TestTable1BadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("did not panic")
		}
	}()
	Table1(Table1Config{})
}

// TestTable1ConfigValidate: a config with a non-positive size field or a
// stream shorter than two flits is rejected by Validate, makes Table1 panic
// with that error's text, and comes back from the registered experiment as
// the same error, never as a panic or a NaN row.
func TestTable1ConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Table1Config
		wantErr bool
	}{
		{"paper default", DefaultTable1Config(), false},
		{"two one-flit packets", Table1Config{Packets: 2, KernelSize: 5, LanesPerFlit: 8, Seed: 1}, false},
		{"one two-flit packet", Table1Config{Packets: 1, KernelSize: 9, LanesPerFlit: 8, Seed: 1}, false},
		{"one-flit stream", Table1Config{Packets: 1, KernelSize: 5, LanesPerFlit: 8, Seed: 1}, true},
		{"zero packets", Table1Config{Packets: 0, KernelSize: 25, LanesPerFlit: 8, Seed: 1}, true},
		{"negative packets", Table1Config{Packets: -3, KernelSize: 25, LanesPerFlit: 8, Seed: 1}, true},
		{"zero kernel", Table1Config{Packets: 10, KernelSize: 0, LanesPerFlit: 8, Seed: 1}, true},
		{"zero lanes", Table1Config{Packets: 10, KernelSize: 25, LanesPerFlit: 0, Seed: 1}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if (err != nil) != tc.wantErr {
				t.Fatalf("Validate() = %v, want error %v", err, tc.wantErr)
			}
			if !tc.wantErr {
				return
			}
			func() {
				defer func() {
					if r := recover(); r != err.Error() {
						t.Errorf("Table1 panicked with %v, want %q", r, err)
					}
				}()
				Table1(tc.cfg)
			}()
			res, runErr := RunExperiment(context.Background(), "table1", Params{Table1: tc.cfg})
			if res != nil || runErr == nil || runErr.Error() != err.Error() {
				t.Errorf("RunExperiment = (%v, %v), want error %q", res, runErr, err)
			}
		})
	}
}

func TestFig9Report(t *testing.T) {
	if testing.Short() {
		t.Skip("uses trained LeNet; skipped in -short mode")
	}
	out := experimentText(t, "fig9", Params{Flits: 6})
	if !strings.Contains(out, "Before:") || !strings.Contains(out, "After") {
		t.Errorf("Fig. 9 sections missing:\n%s", out)
	}
	if !strings.Contains(out, "flit   0") {
		t.Errorf("grid rows missing:\n%s", out)
	}
}

func TestBitLevelReportFloat32(t *testing.T) {
	if testing.Short() {
		t.Skip("uses trained LeNet; skipped in -short mode")
	}
	out := experimentText(t, "fig10", Params{})
	if !strings.Contains(out, "Fig. 10") {
		t.Error("wrong figure label")
	}
	if !strings.Contains(out, "bit 31") {
		t.Error("sign bit row missing")
	}
	if !strings.Contains(out, "mean toggle rate") {
		t.Error("toggle summary missing")
	}
}

func TestBitLevelReportFixed8(t *testing.T) {
	if testing.Short() {
		t.Skip("uses trained LeNet; skipped in -short mode")
	}
	out := experimentText(t, "fig11", Params{})
	if !strings.Contains(out, "Fig. 11") {
		t.Error("wrong figure label")
	}
	if !strings.Contains(out, "bit  7") {
		t.Error("MSB row missing")
	}
}

func TestTable2Report(t *testing.T) {
	out := experimentText(t, "table2", Params{})
	for _, want := range []string{"ordering unit", "router", "12.91", "125.54", "bubble 16"} {
		if !strings.Contains(out, want) {
			t.Errorf("Tab. II report missing %q:\n%s", want, out)
		}
	}
}

func TestLinkPowerReport(t *testing.T) {
	out := experimentText(t, "power", Params{BTReductionPct: 40.85})
	for _, want := range []string{"155.01", "476.67", "91.69", "281.95"} {
		if !strings.Contains(out, want) {
			t.Errorf("link power report missing %q:\n%s", want, out)
		}
	}
}

func TestRunModelOnNoCQuick(t *testing.T) {
	// Small end-to-end check through the facade with random weights.
	m := LeNet(1)
	r, err := RunModelOnNoC(context.Background(), "4x4 MC2", DefaultPlatform().Build(Fixed8()), O1, m, SampleInput(m, 3))
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalBT <= 0 || r.Cycles <= 0 || r.Packets <= 0 {
		t.Errorf("degenerate run result: %+v", r)
	}
	if r.Ordering != O1 || r.Model != "LeNet" {
		t.Errorf("metadata wrong: %+v", r)
	}
}

func TestTrainedModelMemoized(t *testing.T) {
	if testing.Short() {
		t.Skip("trains LeNet; skipped in -short mode")
	}
	a := TrainedLeNet(1)
	b := TrainedLeNet(1)
	if a != b {
		t.Error("TrainedLeNet not memoized")
	}
}

// TestTrainedWeightDigest pins the SHA-256 of the trained weights (float32
// bits, little-endian, in Params order). Any substrate change that alters
// training arithmetic — a reassociated sum, a fused update that reorders
// operations — changes these digests and every trained-weight result.
func TestTrainedWeightDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("trains LeNet and DarkNet; skipped in -short mode")
	}
	for _, tc := range []struct {
		name  string
		model func(int64) *Model
		want  string
	}{
		{"lenet", TrainedLeNet, "e3ac52e80ce0d13390fe0a71622edd0b3ed315d3f43bec9e88f4a4a109944aa5"},
		{"darknet", TrainedDarkNet, "020dad9b94d0fbf918a24b85fb7046d0fb41501d0d4c421425ed9f98d57d7c0a"},
	} {
		h := sha256.New()
		var b [4]byte
		for _, p := range tc.model(1).Params() {
			for _, v := range p.Data {
				binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
				h.Write(b[:])
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("Trained %s(1) weight digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
