package core

import (
	"fmt"
	"math/bits"

	"nocbt/internal/bitutil"
)

// OrderDescending returns the words sorted by descending '1'-bit count and
// the permutation applied: ordered[i] == words[perm[i]]. Equal popcounts
// keep their original relative order, so the result is deterministic.
//
// This is the software model of the paper's ordering unit (Fig. 14:
// SWAR popcount followed by a sorting network); hardware cost is modelled
// in internal/hwmodel. Because the key is a popcount in [0, width], the
// sort is a counting sort over width+1 buckets (see popcountPerm): each
// word is popcounted once, bucket start offsets come from a prefix sum run
// from the highest count down, and words are scattered into their buckets
// in index order. That scatter is what makes the sort stable by
// construction, and it runs in O(n + width) with no comparisons.
func OrderDescending(words []bitutil.Word, width int) ([]bitutil.Word, []int) {
	perm := popcountPerm(wordKeys(words, width), width, true)
	return Gather(words, perm), perm
}

// OrderAscending is OrderDescending with the bucket order flipped: words
// sorted by ascending '1'-bit count, equal counts in original order, and
// ordered[i] == words[perm[i]].
func OrderAscending(words []bitutil.Word, width int) ([]bitutil.Word, []int) {
	perm := popcountPerm(wordKeys(words, width), width, false)
	return Gather(words, perm), perm
}

// Gather returns vals permuted by perm: out[i] == vals[perm[i]].
func Gather[T any](vals []T, perm []int) []T {
	out := make([]T, len(perm))
	for i, p := range perm {
		out[i] = vals[p]
	}
	return out
}

// popcountPerm is the one stable counting-sort kernel behind every
// popcount-keyed ordering. keys[i] is the '1'-bit count of element i at the
// given width, so it lies in [0, width] and the sort needs only width+1 ≤ 65
// buckets: histogram the keys, turn the counts into bucket start offsets
// with a prefix sum (highest count first when descending, lowest first
// otherwise), then place each index at its bucket's next free slot, in
// index order. Elements with equal keys therefore leave in the order they
// arrived: the permutation equals a stable comparison sort's.
func popcountPerm(keys []uint8, width int, descending bool) []int {
	perm := make([]int, len(keys))
	if len(keys) == 0 {
		return perm
	}
	var next [65]int
	for _, k := range keys {
		next[k]++
	}
	pos := 0
	for b := 0; b <= width; b++ {
		c := b
		if descending {
			c = width - b
		}
		n := next[c]
		next[c] = pos
		pos += n
	}
	for i, k := range keys {
		perm[next[k]] = i
		next[k]++
	}
	return perm
}

// wordKeys returns the popcount key of every word for popcountPerm.
func wordKeys(words []bitutil.Word, width int) []uint8 {
	keys := make([]uint8, len(words))
	for i, w := range words {
		keys[i] = uint8(w.OnesCount(width))
	}
	return keys
}

// PackSequential packs words into flits of `lanes` values each, in order,
// padding the final flit with pad. This models the baseline (O0)
// flitization and, applied to a descending-ordered stream, the paper's
// "without NoC" ordered configuration: consecutive flits then carry
// adjacent-rank values.
//
// All flits share one backing array. Each flit's capacity is capped at its
// own lanes, so appending to one flit reallocates it rather than
// overwriting the next.
func PackSequential(words []bitutil.Word, lanes int, pad bitutil.Word) [][]bitutil.Word {
	if lanes <= 0 {
		panic(fmt.Sprintf("core: non-positive lane count %d", lanes))
	}
	numFlits := (len(words) + lanes - 1) / lanes
	backing := make([]bitutil.Word, numFlits*lanes)
	for i := copy(backing, words); i < len(backing); i++ {
		backing[i] = pad
	}
	flits := make([][]bitutil.Word, numFlits)
	for f := range flits {
		flits[f] = backing[f*lanes : (f+1)*lanes : (f+1)*lanes]
	}
	return flits
}

// DistributeColumnMajor assigns rank-ordered words to numFlits flits of
// `lanes` values: rank r goes to flit r mod numFlits, lane r / numFlits.
//
// For numFlits == 2 this is exactly the §III-B optimal interleave
// x1 ≥ y1 ≥ x2 ≥ y2 ≥ …; generally it keeps each lane's values adjacent in
// rank across consecutive flits, which is what minimizes the expected BT of
// the flit sequence within one packet. Missing tail values pad with pad.
func DistributeColumnMajor(ranked []bitutil.Word, numFlits, lanes int, pad bitutil.Word) [][]bitutil.Word {
	if numFlits <= 0 || lanes <= 0 {
		panic(fmt.Sprintf("core: bad flit geometry %dx%d", numFlits, lanes))
	}
	if len(ranked) > numFlits*lanes {
		panic(fmt.Sprintf("core: %d values exceed %d flits × %d lanes", len(ranked), numFlits, lanes))
	}
	flits := make([][]bitutil.Word, numFlits)
	for f := range flits {
		flit := make([]bitutil.Word, lanes)
		for l := range flit {
			flit[l] = pad
		}
		flits[f] = flit
	}
	for r, w := range ranked {
		flits[r%numFlits][r/numFlits] = w
	}
	return flits
}

// StreamTransitions returns the total BT of a flit sequence traversing one
// link: the sum of lane-wise transitions between every consecutive flit
// pair at the given lane width.
func StreamTransitions(flits [][]bitutil.Word, width int) int {
	total := 0
	for i := 1; i < len(flits); i++ {
		total += bitutil.SliceTransitions(flits[i-1], flits[i], width)
	}
	return total
}

// Pair is one (weight, input) value pair of a DNN task. The weight drives
// affiliated ordering; the input either follows its weight (affiliated) or
// is ordered independently (separated).
type Pair struct {
	Weight bitutil.Word
	Input  bitutil.Word
}

// AffiliatedOrder sorts pairs by descending weight popcount, keeping each
// input attached to its weight (§IV-A). The returned permutation satisfies
// ordered[i] == pairs[perm[i]]. Because pairing is preserved, no recovery
// information is needed downstream: conv/linear layers are order-invariant.
//
// It is the Fig. 14 popcount-then-sort unit applied to the weight column:
// the same width+1-bucket counting sort as OrderDescending, keyed on each
// weight's popcount, stable by construction because equal-count pairs are
// scattered into their bucket in index order.
func AffiliatedOrder(pairs []Pair, width int) ([]Pair, []int) {
	perm := popcountPerm(weightKeys(pairs, width), width, true)
	return Gather(pairs, perm), perm
}

// AscendingAffiliatedOrder sorts pairs by ascending weight popcount, keeping
// each input attached to its weight — the '1'-bit-count sorting-unit dual of
// AffiliatedOrder evaluated by Han et al. ("'1'-bit Count-based Sorting Unit
// to Reduce Link Power in DNN Accelerators"): the same sorting hardware with
// the comparator sense flipped. In software that is the same counting sort
// with the bucket prefix sum run from the lowest count up; equal counts keep
// their original order by construction. The returned permutation satisfies
// ordered[i] == pairs[perm[i]].
func AscendingAffiliatedOrder(pairs []Pair, width int) ([]Pair, []int) {
	perm := popcountPerm(weightKeys(pairs, width), width, false)
	return Gather(pairs, perm), perm
}

// weightKeys returns the weight popcount key of every pair for
// popcountPerm.
func weightKeys(pairs []Pair, width int) []uint8 {
	keys := make([]uint8, len(pairs))
	for i, p := range pairs {
		keys[i] = uint8(p.Weight.OnesCount(width))
	}
	return keys
}

// HammingNNOrder orders pairs by a greedy nearest-neighbor walk over
// inter-value Hamming distance, the ordering family of Li et al. ("Improving
// Efficiency in Neural Network Accelerator Using Operands Hamming Distance
// Optimization"): consecutive transmitted values should differ in as few bit
// positions as possible, which directly minimizes the transitions their
// lane experiences. The walk starts at the pair with the highest weight
// popcount and repeatedly appends the unused pair minimizing
// HD(weight) + HD(input) to the previous pick. Pairing is preserved, so like
// AffiliatedOrder no recovery side-channel is needed. O(n²) in the task
// size, the same order as the transposition sorting network it would replace
// in hardware.
//
// Tie-break rule (load-bearing for determinism and the pinned golden
// outputs): both the anchor selection and every greedy step resolve ties in
// favour of the LOWEST ORIGINAL INDEX. The anchor is the first pair
// attaining the maximum weight popcount (strict > while scanning in index
// order); each step picks the first unused pair attaining the minimum
// summed Hamming distance (strict < while scanning in index order). Two
// permutations that sort the same multiset differently are NOT
// interchangeable here — the walk is path-dependent — so this rule is part
// of the strategy's wire-visible contract.
//
// When both values fit one machine word together (2·width ≤ 64) the pair is
// precomputed into a packed key weight | input<<width, collapsing the inner
// distance evaluation to a single XOR+popcount.
func HammingNNOrder(pairs []Pair, width int) ([]Pair, []int) {
	n := len(pairs)
	if n == 0 {
		return nil, nil
	}
	var keys []uint64
	if 2*width <= 64 {
		mask := uint64(1)<<uint(width) - 1
		keys = make([]uint64, n)
		for i, p := range pairs {
			keys[i] = uint64(p.Weight)&mask | (uint64(p.Input)&mask)<<uint(width)
		}
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
		if keys != nil {
			ck := keys[cur]
			for i := range keys {
				if used[i] {
					continue
				}
				d := bits.OnesCount64(ck ^ keys[i])
				if next == -1 || d < bestDist {
					next, bestDist = i, d
				}
			}
		} else {
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

// Separated is the result of separated-ordering (§IV-B): weights and inputs
// each sorted by their own popcount, plus the minimal side-channel needed to
// re-pair them at the PE.
type Separated struct {
	// Weights sorted by descending weight popcount.
	Weights []bitutil.Word
	// Inputs sorted by descending input popcount.
	Inputs []bitutil.Word
	// PartnerIndex[i] is the position in Weights of the weight originally
	// paired with Inputs[i]. This is the "minimal-bit-width index" the
	// paper transmits: ⌈log₂ N⌉ bits per input.
	PartnerIndex []int
}

// SeparatedOrder orders weights and inputs independently by descending
// popcount and computes the partner index side-channel.
func SeparatedOrder(weights, inputs []bitutil.Word, width int) Separated {
	if len(weights) != len(inputs) {
		panic(fmt.Sprintf("core: %d weights vs %d inputs", len(weights), len(inputs)))
	}
	orderedW, wPerm := OrderDescending(weights, width)
	orderedI, iPerm := OrderDescending(inputs, width)
	// invW[k] = position of original weight k in the ordered weight list.
	invW := make([]int, len(wPerm))
	for pos, orig := range wPerm {
		invW[orig] = pos
	}
	// Each entry of iPerm is read once, just before its slot is
	// overwritten, so the partner table reuses iPerm's storage.
	partner := iPerm
	for pos, orig := range iPerm {
		partner[pos] = invW[orig]
	}
	return Separated{Weights: orderedW, Inputs: orderedI, PartnerIndex: partner}
}

// RecoverPairs reconstructs the original (weight, input) pairing from a
// separated-ordered packet — the PE-side de-ordering step. The returned
// pairs are in ordered-weight order, which is a consistent pairing (the
// dot product over them equals the original task's dot product).
func (s Separated) RecoverPairs() []Pair {
	pairs := make([]Pair, len(s.Weights))
	for i, w := range s.Weights {
		pairs[i].Weight = w
	}
	for i, in := range s.Inputs {
		p := s.PartnerIndex[i]
		if p < 0 || p >= len(pairs) {
			panic(fmt.Sprintf("core: partner index %d outside [0,%d)", p, len(pairs)))
		}
		pairs[p].Input = in
	}
	return pairs
}

// IndexBits returns the side-channel cost of separated-ordering for an
// n-value task: ⌈log₂ n⌉ bits per index.
func IndexBits(n int) int {
	if n <= 1 {
		return 0
	}
	bits := 0
	for v := n - 1; v > 0; v >>= 1 {
		bits++
	}
	return bits
}

// SplitPairs separates a pair slice into its weight and input columns.
func SplitPairs(pairs []Pair) (weights, inputs []bitutil.Word) {
	weights = make([]bitutil.Word, len(pairs))
	inputs = make([]bitutil.Word, len(pairs))
	for i, p := range pairs {
		weights[i] = p.Weight
		inputs[i] = p.Input
	}
	return weights, inputs
}

// ZipPairs combines weight and input columns into pairs.
func ZipPairs(weights, inputs []bitutil.Word) []Pair {
	if len(weights) != len(inputs) {
		panic(fmt.Sprintf("core: %d weights vs %d inputs", len(weights), len(inputs)))
	}
	pairs := make([]Pair, len(weights))
	for i := range pairs {
		pairs[i] = Pair{Weight: weights[i], Input: inputs[i]}
	}
	return pairs
}
