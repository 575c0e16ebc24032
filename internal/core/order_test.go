package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"nocbt/internal/bitutil"
	"nocbt/internal/quant"
)

func randWords(n, width int, rng *rand.Rand) []bitutil.Word {
	out := make([]bitutil.Word, n)
	mask := uint64(1)<<uint(width) - 1
	for i := range out {
		out[i] = bitutil.Word(rng.Uint64() & mask)
	}
	return out
}

func TestOrderDescendingProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		width := []int{8, 32}[trial%2]
		words := randWords(1+rng.Intn(50), width, rng)
		ordered, perm := OrderDescending(words, width)

		if len(ordered) != len(words) || len(perm) != len(words) {
			t.Fatalf("length mismatch")
		}
		// perm is a permutation and ordered[i] == words[perm[i]].
		seen := make([]bool, len(words))
		for i, p := range perm {
			if p < 0 || p >= len(words) || seen[p] {
				t.Fatalf("invalid permutation %v", perm)
			}
			seen[p] = true
			if ordered[i] != words[p] {
				t.Fatalf("ordered[%d] != words[perm[%d]]", i, i)
			}
		}
		// Descending popcounts.
		counts := Popcounts(ordered, width)
		for i := 1; i < len(counts); i++ {
			if counts[i] > counts[i-1] {
				t.Fatalf("popcounts not descending at %d: %v", i, counts)
			}
		}
		// Multiset preserved.
		a := append([]bitutil.Word(nil), words...)
		b := append([]bitutil.Word(nil), ordered...)
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("multiset changed")
			}
		}
	}
}

func TestOrderDescendingStable(t *testing.T) {
	// Equal popcounts must keep original order: 0x03 (2 ones) before 0x05
	// (2 ones) before 0x06 (2 ones).
	words := []bitutil.Word{0x03, 0x05, 0xFF, 0x06}
	ordered, _ := OrderDescending(words, 8)
	want := []bitutil.Word{0xFF, 0x03, 0x05, 0x06}
	for i := range want {
		if ordered[i] != want[i] {
			t.Errorf("ordered[%d] = %#x, want %#x (stability)", i, ordered[i], want[i])
		}
	}
}

func TestOrderDescendingEmpty(t *testing.T) {
	ordered, perm := OrderDescending(nil, 8)
	if len(ordered) != 0 || len(perm) != 0 {
		t.Error("empty input must give empty output")
	}
}

func TestPackSequential(t *testing.T) {
	words := []bitutil.Word{1, 2, 3, 4, 5}
	flits := PackSequential(words, 2, 0xEE)
	if len(flits) != 3 {
		t.Fatalf("flit count %d, want 3", len(flits))
	}
	if flits[0][0] != 1 || flits[0][1] != 2 || flits[2][0] != 5 {
		t.Errorf("unexpected packing %v", flits)
	}
	if flits[2][1] != 0xEE {
		t.Errorf("padding = %#x, want 0xEE", flits[2][1])
	}
}

func TestPackSequentialBadLanesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("did not panic")
		}
	}()
	PackSequential(nil, 0, 0)
}

func TestDistributeColumnMajorTwoFlits(t *testing.T) {
	// Ranks 0..5 over 2 flits × 3 lanes: flit0 = [0,2,4], flit1 = [1,3,5].
	// Lane-wise this is the paper's x1 ≥ y1 ≥ x2 ≥ y2 ≥ x3 ≥ y3 interleave.
	ranked := []bitutil.Word{10, 11, 12, 13, 14, 15}
	flits := DistributeColumnMajor(ranked, 2, 3, 0)
	if flits[0][0] != 10 || flits[0][1] != 12 || flits[0][2] != 14 {
		t.Errorf("flit0 = %v", flits[0])
	}
	if flits[1][0] != 11 || flits[1][1] != 13 || flits[1][2] != 15 {
		t.Errorf("flit1 = %v", flits[1])
	}
}

func TestDistributeColumnMajorPadding(t *testing.T) {
	ranked := []bitutil.Word{1, 2, 3}
	flits := DistributeColumnMajor(ranked, 2, 3, 0xAA)
	// rank0→f0l0, rank1→f1l0, rank2→f0l1; rest pad.
	if flits[0][0] != 1 || flits[1][0] != 2 || flits[0][1] != 3 {
		t.Errorf("placement wrong: %v", flits)
	}
	if flits[1][1] != 0xAA || flits[0][2] != 0xAA || flits[1][2] != 0xAA {
		t.Errorf("padding wrong: %v", flits)
	}
}

func TestDistributeColumnMajorOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("did not panic")
		}
	}()
	DistributeColumnMajor(make([]bitutil.Word, 7), 2, 3, 0)
}

func TestStreamTransitions(t *testing.T) {
	flits := [][]bitutil.Word{
		{0x00, 0xFF},
		{0x0F, 0xFF}, // 4 flips on lane 0
		{0x0F, 0x00}, // 8 flips on lane 1
	}
	if got := StreamTransitions(flits, 8); got != 12 {
		t.Errorf("StreamTransitions = %d, want 12", got)
	}
	if got := StreamTransitions(flits[:1], 8); got != 0 {
		t.Errorf("single flit stream BT = %d, want 0", got)
	}
	if got := StreamTransitions(nil, 8); got != 0 {
		t.Errorf("empty stream BT = %d, want 0", got)
	}
}

// TestInterleaveOptimalityExhaustive verifies the §III-B claim: over every
// way of arranging 2N values into two N-lane flits, the descending
// interleave achieves the maximum F = Σ xi·yi.
func TestInterleaveOptimalityExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(3) // N ∈ {2,3,4}
		vals := make([]int, 2*n)
		for i := range vals {
			vals[i] = rng.Intn(33)
		}

		// The count-based strategy: sort descending, interleave.
		sorted := append([]int(nil), vals...)
		sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
		xs := make([]int, n)
		ys := make([]int, n)
		for i := 0; i < n; i++ {
			xs[i] = sorted[2*i]
			ys[i] = sorted[2*i+1]
		}
		fCount := PairProductSum(xs, ys)

		// Exhaustive maximum over all subset choices for flit 1; the best
		// lane pairing for a fixed split is descending-descending (the
		// rearrangement inequality), so checking splits suffices for the
		// true maximum.
		best := -1
		for mask := 0; mask < 1<<(2*n); mask++ {
			if popcountInt(mask) != n {
				continue
			}
			var a, b []int
			for i, v := range vals {
				if mask>>uint(i)&1 == 1 {
					a = append(a, v)
				} else {
					b = append(b, v)
				}
			}
			sort.Sort(sort.Reverse(sort.IntSlice(a)))
			sort.Sort(sort.Reverse(sort.IntSlice(b)))
			if f := PairProductSum(a, b); f > best {
				best = f
			}
		}
		if fCount != best {
			t.Fatalf("trial %d: count-based F=%d, exhaustive max=%d (vals %v)",
				trial, fCount, best, vals)
		}
	}
}

func popcountInt(v int) int {
	n := 0
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}

// TestPairwiseExchangeLemma checks the paper's local step: for four counts
// with x1 ≥ y1 ≥ x2 ≥ y2, the aligned pairing dominates both alternatives.
func TestPairwiseExchangeLemma(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		v := []int{int(a) % 33, int(b) % 33, int(c) % 33, int(d) % 33}
		sort.Sort(sort.Reverse(sort.IntSlice(v)))
		x1, y1, x2, y2 := v[0], v[1], v[2], v[3]
		aligned := x1*y1 + x2*y2
		cross1 := x1*y2 + x2*y1
		cross2 := x1*x2 + y1*y2
		return aligned >= cross1 && aligned >= cross2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestOrderingReducesStreamBT is the end-to-end statistical check behind
// Tab. I: on random data, ordered packing must produce no more transitions
// than the baseline packing.
func TestOrderingReducesStreamBT(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, width := range []int{8, 32} {
		words := randWords(800, width, rng)
		baseline := StreamTransitions(PackSequential(words, 8, 0), width)
		ordered, _ := OrderDescending(words, width)
		orderedBT := StreamTransitions(PackSequential(ordered, 8, 0), width)
		if orderedBT >= baseline {
			t.Errorf("width %d: ordered BT %d not below baseline %d", width, orderedBT, baseline)
		}
	}
}

func TestAffiliatedOrderKeepsPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	weights := randWords(40, 8, rng)
	inputs := randWords(40, 8, rng)
	pairs := ZipPairs(weights, inputs)
	ordered, perm := AffiliatedOrder(pairs, 8)

	// Weights descending.
	for i := 1; i < len(ordered); i++ {
		if ordered[i].Weight.OnesCount(8) > ordered[i-1].Weight.OnesCount(8) {
			t.Fatalf("weights not descending at %d", i)
		}
	}
	// Pairing preserved through the permutation.
	for i, p := range perm {
		if ordered[i].Weight != weights[p] || ordered[i].Input != inputs[p] {
			t.Fatalf("pair %d broken", i)
		}
	}
}

func TestAffiliatedOrderPreservesDotProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	n := 30
	w8 := make([]int8, n)
	i8 := make([]int8, n)
	for i := range w8 {
		w8[i] = int8(rng.Intn(255) - 127)
		i8[i] = int8(rng.Intn(255) - 127)
	}
	want := quant.DotQ(w8, i8)

	pairs := ZipPairs(bitutil.Fixed8Words(w8), bitutil.Fixed8Words(i8))
	ordered, _ := AffiliatedOrder(pairs, 8)
	ow := make([]int8, n)
	oi := make([]int8, n)
	for i, p := range ordered {
		ow[i] = bitutil.WordFixed8(p.Weight)
		oi[i] = bitutil.WordFixed8(p.Input)
	}
	if got := quant.DotQ(ow, oi); got != want {
		t.Errorf("affiliated-ordered dot %d, want %d", got, want)
	}
}

func TestSeparatedOrderRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(60)
		w8 := make([]int8, n)
		i8 := make([]int8, n)
		for i := range w8 {
			w8[i] = int8(rng.Intn(255) - 127)
			i8[i] = int8(rng.Intn(255) - 127)
		}
		want := quant.DotQ(w8, i8)

		sep := SeparatedOrder(bitutil.Fixed8Words(w8), bitutil.Fixed8Words(i8), 8)

		// Both columns descending.
		for i := 1; i < n; i++ {
			if sep.Weights[i].OnesCount(8) > sep.Weights[i-1].OnesCount(8) {
				t.Fatalf("weights not descending")
			}
			if sep.Inputs[i].OnesCount(8) > sep.Inputs[i-1].OnesCount(8) {
				t.Fatalf("inputs not descending")
			}
		}

		pairs := sep.RecoverPairs()
		ow := make([]int8, n)
		oi := make([]int8, n)
		for i, p := range pairs {
			ow[i] = bitutil.WordFixed8(p.Weight)
			oi[i] = bitutil.WordFixed8(p.Input)
		}
		if got := quant.DotQ(ow, oi); got != want {
			t.Fatalf("trial %d: recovered dot %d, want %d", trial, got, want)
		}
	}
}

func TestSeparatedOrderMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("did not panic")
		}
	}()
	SeparatedOrder(make([]bitutil.Word, 2), make([]bitutil.Word, 3), 8)
}

// TestSeparatedBeatsAffiliatedOnInputs: separated-ordering also orders the
// input half, so the input-half stream BT must not exceed the affiliated
// arrangement's input-half BT on random data.
func TestSeparatedBeatsAffiliatedOnInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	weights := randWords(400, 8, rng)
	inputs := randWords(400, 8, rng)

	affPairs, _ := AffiliatedOrder(ZipPairs(weights, inputs), 8)
	_, affInputs := SplitPairs(affPairs)
	sep := SeparatedOrder(weights, inputs, 8)

	affBT := StreamTransitions(PackSequential(affInputs, 8, 0), 8)
	sepBT := StreamTransitions(PackSequential(sep.Inputs, 8, 0), 8)
	if sepBT > affBT {
		t.Errorf("separated input BT %d exceeds affiliated %d", sepBT, affBT)
	}
}

func TestIndexBits(t *testing.T) {
	tests := []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{16, 4}, {17, 5}, {25, 5}, {26, 5}, {400, 9},
	}
	for _, tt := range tests {
		if got := IndexBits(tt.n); got != tt.want {
			t.Errorf("IndexBits(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestZipSplitPairs(t *testing.T) {
	w := []bitutil.Word{1, 2, 3}
	in := []bitutil.Word{4, 5, 6}
	pairs := ZipPairs(w, in)
	gw, gi := SplitPairs(pairs)
	for i := range w {
		if gw[i] != w[i] || gi[i] != in[i] {
			t.Errorf("round trip broke at %d", i)
		}
	}
}

func TestZipPairsMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("did not panic")
		}
	}()
	ZipPairs(make([]bitutil.Word, 1), make([]bitutil.Word, 2))
}

// TestAscendingAffiliatedOrderProperties: ascending '1'-count, pairing
// preserved, valid permutation — the Han et al. sorting-unit dual.
func TestAscendingAffiliatedOrderProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(40)
		pairs := ZipPairs(randWords(n, 8, rng), randWords(n, 8, rng))
		ordered, perm := AscendingAffiliatedOrder(pairs, 8)
		if len(ordered) != len(pairs) || len(perm) != len(pairs) {
			t.Fatalf("length mismatch: %d pairs -> %d ordered, %d perm", len(pairs), len(ordered), len(perm))
		}
		seen := make([]bool, len(pairs))
		for i, p := range perm {
			if seen[p] {
				t.Fatalf("perm reuses index %d", p)
			}
			seen[p] = true
			if ordered[i] != pairs[p] {
				t.Fatalf("ordered[%d] != pairs[perm[%d]]", i, i)
			}
		}
		for i := 1; i < len(ordered); i++ {
			if ordered[i].Weight.OnesCount(8) < ordered[i-1].Weight.OnesCount(8) {
				t.Fatalf("weights not ascending at %d", i)
			}
		}
	}
}

// TestAscendingIsReverseOfDescendingCounts: the two affiliated orders must
// produce mirrored popcount sequences on the same input.
func TestAscendingIsReverseOfDescendingCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	pairs := ZipPairs(randWords(30, 8, rng), randWords(30, 8, rng))
	desc, _ := AffiliatedOrder(pairs, 8)
	asc, _ := AscendingAffiliatedOrder(pairs, 8)
	for i := range desc {
		if desc[i].Weight.OnesCount(8) != asc[len(asc)-1-i].Weight.OnesCount(8) {
			t.Fatalf("count sequences not mirrored at %d", i)
		}
	}
}

// TestHammingNNOrderProperties: valid permutation, pairing preserved,
// deterministic, starts at the max-popcount weight.
func TestHammingNNOrderProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(40)
		pairs := ZipPairs(randWords(n, 8, rng), randWords(n, 8, rng))
		ordered, perm := HammingNNOrder(pairs, 8)
		if len(ordered) != n || len(perm) != n {
			t.Fatalf("length mismatch for n=%d", n)
		}
		seen := make([]bool, n)
		for i, p := range perm {
			if seen[p] {
				t.Fatalf("perm reuses index %d", p)
			}
			seen[p] = true
			if ordered[i] != pairs[p] {
				t.Fatalf("ordered[%d] != pairs[perm[%d]]", i, i)
			}
		}
		best := 0
		for _, p := range pairs {
			if c := p.Weight.OnesCount(8); c > best {
				best = c
			}
		}
		if got := ordered[0].Weight.OnesCount(8); got != best {
			t.Fatalf("walk starts at popcount %d, want max %d", got, best)
		}
		again, perm2 := HammingNNOrder(pairs, 8)
		for i := range again {
			if again[i] != ordered[i] || perm2[i] != perm[i] {
				t.Fatal("HammingNNOrder not deterministic")
			}
		}
	}
	if ordered, perm := HammingNNOrder(nil, 8); ordered != nil || perm != nil {
		t.Error("empty input should order to nil")
	}
}

// TestHammingNNOrderReducesAdjacentDistance: on average the greedy walk
// must yield a lower summed adjacent Hamming distance than natural order —
// the quantity Li et al. minimize.
func TestHammingNNOrderReducesAdjacentDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	adjacent := func(pairs []Pair) int {
		total := 0
		for i := 1; i < len(pairs); i++ {
			total += pairs[i-1].Weight.HammingDistance(pairs[i].Weight, 8) +
				pairs[i-1].Input.HammingDistance(pairs[i].Input, 8)
		}
		return total
	}
	var natural, greedy int
	for trial := 0; trial < 100; trial++ {
		pairs := ZipPairs(randWords(25, 8, rng), randWords(25, 8, rng))
		ordered, _ := HammingNNOrder(pairs, 8)
		natural += adjacent(pairs)
		greedy += adjacent(ordered)
	}
	if !(greedy < natural) {
		t.Errorf("greedy adjacent distance %d not below natural %d", greedy, natural)
	}
}

// naiveHammingNN is the pre-packed-key reference walk, kept in the tests as
// the oracle for the packed-popcount fast path: explicit first-index
// tie-breaks, per-value HammingDistance calls, no key table.
func naiveHammingNN(pairs []Pair, width int) ([]Pair, []int) {
	n := len(pairs)
	if n == 0 {
		return nil, nil
	}
	used := make([]bool, n)
	perm := make([]int, 0, n)
	start, best := 0, -1
	for i, p := range pairs {
		if c := p.Weight.OnesCount(width); c > best {
			start, best = i, c
		}
	}
	cur := start
	used[cur] = true
	perm = append(perm, cur)
	for len(perm) < n {
		next, bestDist := -1, -1
		for i := range pairs {
			if used[i] {
				continue
			}
			d := pairs[cur].Weight.HammingDistance(pairs[i].Weight, width) +
				pairs[cur].Input.HammingDistance(pairs[i].Input, width)
			if next == -1 || d < bestDist {
				next, bestDist = i, d
			}
		}
		used[next] = true
		perm = append(perm, next)
		cur = next
	}
	ordered := make([]Pair, n)
	for i, p := range perm {
		ordered[i] = pairs[p]
	}
	return ordered, perm
}

// TestHammingNNOrderTieBreak is the table-driven pin of the documented
// tie-break contract: the anchor is the FIRST pair attaining the maximum
// weight popcount, and each greedy step picks the FIRST unused pair
// attaining the minimum summed Hamming distance. The walk is
// path-dependent, so these cases would diverge under any other rule.
func TestHammingNNOrderTieBreak(t *testing.T) {
	cases := []struct {
		name     string
		weights  []uint64
		inputs   []uint64
		width    int
		wantPerm []int
	}{
		{
			// All pairs identical: every anchor candidate and every step
			// ties; lowest-index resolution yields the identity walk.
			name:     "all identical",
			weights:  []uint64{0x0F, 0x0F, 0x0F, 0x0F},
			inputs:   []uint64{0xAA, 0xAA, 0xAA, 0xAA},
			width:    8,
			wantPerm: []int{0, 1, 2, 3},
		},
		{
			// Indices 1 and 3 share the maximum weight popcount (4); the
			// anchor must be index 1, the first of them. From 0x0F at
			// distance counting, index 3 (identical pair) is distance 0.
			name:     "anchor ties to first max popcount",
			weights:  []uint64{0x01, 0x0F, 0x03, 0x0F},
			inputs:   []uint64{0x00, 0x00, 0x00, 0x00},
			width:    8,
			wantPerm: []int{1, 3, 2, 0},
		},
		{
			// After anchor 0 (popcount 8), candidates 1 and 2 are both at
			// distance 4 on weights with identical inputs: the tied step
			// must take index 1 (0xF0). From there 0x00 is distance 4 and
			// 0x0F distance 8, so the walk ends 3 then 2.
			name:     "step ties to first min distance",
			weights:  []uint64{0xFF, 0xF0, 0x0F, 0x00},
			inputs:   []uint64{0x55, 0x55, 0x55, 0x55},
			width:    8,
			wantPerm: []int{0, 1, 3, 2},
		},
		{
			// Same multiset with 0x0F and 0xF0 swapped: the tied first step
			// now picks 0x0F (index 1), proving the rule reads original
			// indices, not values.
			name:     "step ties follow index order not value order",
			weights:  []uint64{0xFF, 0x0F, 0xF0, 0x00},
			inputs:   []uint64{0x55, 0x55, 0x55, 0x55},
			width:    8,
			wantPerm: []int{0, 1, 3, 2},
		},
		{
			name:     "single pair",
			weights:  []uint64{0x12},
			inputs:   []uint64{0x34},
			width:    8,
			wantPerm: []int{0},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ws := make([]bitutil.Word, len(tc.weights))
			ins := make([]bitutil.Word, len(tc.inputs))
			for i := range ws {
				ws[i] = bitutil.Word(tc.weights[i])
				ins[i] = bitutil.Word(tc.inputs[i])
			}
			pairs := ZipPairs(ws, ins)
			ordered, perm := HammingNNOrder(pairs, tc.width)
			for i := range tc.wantPerm {
				if perm[i] != tc.wantPerm[i] {
					t.Fatalf("perm = %v, want %v", perm, tc.wantPerm)
				}
				if ordered[i] != pairs[perm[i]] {
					t.Fatalf("ordered[%d] does not match pairs[perm[%d]]", i, i)
				}
			}
		})
	}
}

// TestHammingNNOrderPackedMatchesNaive: the packed-key fast path (2·width ≤
// 64) must walk exactly like the per-value reference for every width it
// covers, and the generic path must equal the reference above the packing
// limit.
func TestHammingNNOrderPackedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, width := range []int{4, 8, 16, 32, 64} {
		for trial := 0; trial < 20; trial++ {
			n := 1 + rng.Intn(30)
			pairs := ZipPairs(randWords(n, width, rng), randWords(n, width, rng))
			gotOrd, gotPerm := HammingNNOrder(pairs, width)
			wantOrd, wantPerm := naiveHammingNN(pairs, width)
			for i := range wantPerm {
				if gotPerm[i] != wantPerm[i] || gotOrd[i] != wantOrd[i] {
					t.Fatalf("width %d n %d: perm %v, reference %v", width, n, gotPerm, wantPerm)
				}
			}
		}
	}
}

// TestAscendingAffiliatedOrderMatchesStableSort pins the packed-key sort to
// the stable-sort semantics it replaced: ascending weight popcount with
// original order preserved inside equal-count runs.
func TestAscendingAffiliatedOrderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 40; trial++ {
		width := []int{8, 32}[trial%2]
		n := 1 + rng.Intn(50)
		// Narrow value range forces many popcount ties.
		ws := make([]bitutil.Word, n)
		ins := make([]bitutil.Word, n)
		for i := range ws {
			ws[i] = bitutil.Word(rng.Uint64() & 0x7)
			ins[i] = bitutil.Word(rng.Uint64())
		}
		pairs := ZipPairs(ws, ins)
		counts := make([]int, n)
		wantPerm := make([]int, n)
		for i := range wantPerm {
			wantPerm[i] = i
			counts[i] = pairs[i].Weight.OnesCount(width)
		}
		sort.SliceStable(wantPerm, func(a, b int) bool { return counts[wantPerm[a]] < counts[wantPerm[b]] })
		ordered, perm := AscendingAffiliatedOrder(pairs, width)
		for i := range wantPerm {
			if perm[i] != wantPerm[i] {
				t.Fatalf("width %d n %d: perm %v, stable reference %v", width, n, perm, wantPerm)
			}
			if ordered[i] != pairs[perm[i]] {
				t.Fatalf("ordered[%d] != pairs[perm[%d]]", i, i)
			}
		}
	}
}

// The sort.SliceStable bodies the counting-sort kernel replaced, kept as
// the test oracle: a stable comparison sort on popcount keys.

func refStablePerm(n int, key func(i int) int, descending bool) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		if descending {
			return key(perm[a]) > key(perm[b])
		}
		return key(perm[a]) < key(perm[b])
	})
	return perm
}

func refOrderWords(words []bitutil.Word, width int, descending bool) ([]bitutil.Word, []int) {
	counts := Popcounts(words, width)
	perm := refStablePerm(len(words), func(i int) int { return counts[i] }, descending)
	ordered := make([]bitutil.Word, len(words))
	for i, p := range perm {
		ordered[i] = words[p]
	}
	return ordered, perm
}

func refOrderPairs(pairs []Pair, width int, descending bool) ([]Pair, []int) {
	perm := refStablePerm(len(pairs), func(i int) int { return pairs[i].Weight.OnesCount(width) }, descending)
	ordered := make([]Pair, len(pairs))
	for i, p := range perm {
		ordered[i] = pairs[p]
	}
	return ordered, perm
}

func refSeparatedOrder(weights, inputs []bitutil.Word, width int) Separated {
	orderedW, wPerm := refOrderWords(weights, width, true)
	orderedI, iPerm := refOrderWords(inputs, width, true)
	invW := make([]int, len(wPerm))
	for pos, orig := range wPerm {
		invW[orig] = pos
	}
	partner := make([]int, len(iPerm))
	for pos, orig := range iPerm {
		partner[pos] = invW[orig]
	}
	return Separated{Weights: orderedW, Inputs: orderedI, PartnerIndex: partner}
}

// popcountOrderInputs draws n weight and input words at the given width.
// tieBits > 0 masks every value to its low tieBits bits, which squeezes the
// popcounts into [0, tieBits] and forces long runs of equal keys.
func popcountOrderInputs(seed int64, n, width, tieBits int) (weights, inputs []bitutil.Word) {
	rng := rand.New(rand.NewSource(seed))
	weights = randWords(n, width, rng)
	inputs = randWords(n, width, rng)
	if tieBits > 0 {
		mask := bitutil.Word(1)<<uint(tieBits) - 1
		for i := range weights {
			weights[i] &= mask
			inputs[i] &= mask
		}
	}
	return weights, inputs
}

// checkPopcountOrdersMatchReference compares every popcount-keyed ordering
// with its stable comparison-sort reference: same permutation, same output.
func checkPopcountOrdersMatchReference(t *testing.T, weights, inputs []bitutil.Word, width int) {
	t.Helper()
	for _, tc := range []struct {
		name       string
		order      func([]bitutil.Word, int) ([]bitutil.Word, []int)
		descending bool
	}{
		{"OrderDescending", OrderDescending, true},
		{"OrderAscending", OrderAscending, false},
	} {
		got, gotPerm := tc.order(weights, width)
		want, wantPerm := refOrderWords(weights, width, tc.descending)
		if !slices.Equal(gotPerm, wantPerm) || !slices.Equal(got, want) {
			t.Fatalf("%s width %d n %d: perm %v, reference %v", tc.name, width, len(weights), gotPerm, wantPerm)
		}
	}
	pairs := ZipPairs(weights, inputs)
	for _, tc := range []struct {
		name       string
		order      func([]Pair, int) ([]Pair, []int)
		descending bool
	}{
		{"AffiliatedOrder", AffiliatedOrder, true},
		{"AscendingAffiliatedOrder", AscendingAffiliatedOrder, false},
	} {
		got, gotPerm := tc.order(pairs, width)
		want, wantPerm := refOrderPairs(pairs, width, tc.descending)
		if !slices.Equal(gotPerm, wantPerm) || !slices.Equal(got, want) {
			t.Fatalf("%s width %d n %d: perm %v, reference %v", tc.name, width, len(pairs), gotPerm, wantPerm)
		}
	}
	got := SeparatedOrder(weights, inputs, width)
	want := refSeparatedOrder(weights, inputs, width)
	if !slices.Equal(got.Weights, want.Weights) || !slices.Equal(got.Inputs, want.Inputs) ||
		!slices.Equal(got.PartnerIndex, want.PartnerIndex) {
		t.Fatalf("SeparatedOrder width %d n %d: %+v, reference %+v", width, len(weights), got, want)
	}
}

// TestPopcountOrdersMatchStableSort is the equivalence gate for the
// counting-sort kernel: at every lane width and across task sizes, with
// and without heavy popcount ties, each ordering yields exactly the
// permutation and output of a stable comparison sort.
func TestPopcountOrdersMatchStableSort(t *testing.T) {
	for _, width := range []int{1, 2, 4, 8, 16, 32, 64} {
		for _, n := range []int{0, 1, 7, 25, 150, 400, 1000} {
			for _, tieBits := range []int{0, 1, 3} {
				if tieBits >= width {
					continue
				}
				weights, inputs := popcountOrderInputs(int64(width*10_000+n*10+tieBits), n, width, tieBits)
				checkPopcountOrdersMatchReference(t, weights, inputs, width)
			}
		}
	}
}

// FuzzPopcountOrderMatchesStableSort explores the same space as
// TestPopcountOrdersMatchStableSort: any width in [1, 64], any task size up
// to 1000 and any tie mask.
func FuzzPopcountOrderMatchesStableSort(f *testing.F) {
	f.Add(int64(1), uint16(25), uint8(8), uint8(0))
	f.Add(int64(2), uint16(400), uint8(32), uint8(3))
	f.Add(int64(3), uint16(1000), uint8(64), uint8(1))
	f.Add(int64(4), uint16(0), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, width, tieBits uint8) {
		w := 1 + int(width)%64
		weights, inputs := popcountOrderInputs(seed, int(n)%1001, w, int(tieBits)%w)
		checkPopcountOrdersMatchReference(t, weights, inputs, w)
	})
}

// TestPackSequentialFlitsDoNotAlias: flits share one backing array, but
// appending to one flit must not write into the next.
func TestPackSequentialFlitsDoNotAlias(t *testing.T) {
	flits := PackSequential([]bitutil.Word{1, 2, 3, 4, 5, 6}, 3, 0)
	_ = append(flits[0], 99)
	if !slices.Equal(flits[1], []bitutil.Word{4, 5, 6}) {
		t.Fatalf("appending to flit 0 changed flit 1 to %v", flits[1])
	}
}
