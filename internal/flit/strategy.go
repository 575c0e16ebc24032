package flit

// The ordering/link-coding strategy registry — the open replacement for the
// closed O0/O1/O2 switch. The paper's contribution is an axis (how data is
// ordered on the wire changes bit transitions); this file makes that axis
// pluggable behind two small interfaces:
//
//   - OrderingStrategy permutes a task's (weight, input) pairs before
//     flitization, optionally emitting recovery metadata (O2's partner
//     table). Flitize/Deflitize are strategy-driven: every registered
//     strategy flows through the same placement, header and recovery
//     machinery the paper orderings use.
//   - LinkCodingScheme transforms the flit stream on each physical link
//     (bus-invert, Gray coding). Codings stack on top of any ordering: the
//     ordering shapes what is transmitted, the coding how the wires toggle.
//
// The paper's O0/O1/O2 are registered here with their original wire IDs, so
// legacy configurations and the byte-pinned golden outputs are untouched.
// Related-work strategies ship alongside: greedy Hamming-distance
// nearest-neighbor ordering (Li et al. 2020) and the ascending '1'-count
// sorting-unit dual (Han et al.), plus Gray and bus-invert link codings.

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"nocbt/internal/bitutil"
	"nocbt/internal/businvert"
	"nocbt/internal/core"
)

// OrderingStrategy is one transmission-ordering policy: it permutes a
// task's (weight, input) pairs before lane placement. Implementations must
// be deterministic and safe for concurrent use (Order is called from sweep
// workers in parallel).
type OrderingStrategy interface {
	// Name is the registry key, e.g. "O2" or "hamming-nn". Lookup is
	// case-insensitive; display uses the registered spelling.
	Name() string
	// ID is the stable wire identifier encoded into packet headers. It must
	// fit the header's 8-bit ordering field (0..255) and never change once
	// traffic or fingerprints exist for it.
	ID() Ordering
	// Interleave selects lane placement: true places transmission rank r in
	// flit r mod M, slot r div M (the §III-B column-major interleave that
	// keeps adjacent ranks lane-adjacent across consecutive flits), false
	// keeps the baseline flit-major streaming order.
	Interleave() bool
	// EmitsPartner reports whether Order returns a re-pairing table the
	// receiver needs to restore (weight, input) pairing — true only for
	// separated-style strategies that break pairing.
	EmitsPartner() bool
	// Order returns the transmission-ordered weights and inputs and, when
	// EmitsPartner, the partner table: partner[i] is the rank in the
	// ordered weight sequence of the weight paired with ordered input i.
	Order(weights, inputs []bitutil.Word, laneBits int) (w, in []bitutil.Word, partner []int)
}

// LinkCoding is the per-link state of one coding scheme. Each physical link
// owns its own instance; implementations need not be safe for concurrent
// use.
type LinkCoding interface {
	// Transitions drives payload onto the coded wire state and returns the
	// wire toggles this beat caused, including any extra-line flips.
	Transitions(payload bitutil.Vec) int
}

// LinkCodingScheme describes one link coding and builds per-link state.
type LinkCodingScheme interface {
	// Name is the registry key, e.g. "gray" or "businvert". Lookup is
	// case-insensitive.
	Name() string
	// ExtraLines reports the additional physical wires the coding needs per
	// width-bit link — the overhead the paper's §II holds against
	// encoding-based BT reduction. It flows into the hwmodel link power
	// accounting.
	ExtraLines(width int) int
	// New returns fresh per-link coding state for a width-bit link.
	New(width int) (LinkCoding, error)
}

// registry is the process-global strategy index. Registration normally
// happens in init (the built-ins below) or test setup; lookups run on hot
// paths, hence the RWMutex.
var registry = struct {
	sync.RWMutex
	byName map[string]OrderingStrategy
	byID   map[Ordering]OrderingStrategy
	coding map[string]LinkCodingScheme
}{
	byName: make(map[string]OrderingStrategy),
	byID:   make(map[Ordering]OrderingStrategy),
	coding: make(map[string]LinkCodingScheme),
}

// RegisterOrdering adds an ordering strategy to the registry. Empty names,
// IDs outside the header's 8-bit field and duplicate names or IDs are
// rejected.
func RegisterOrdering(s OrderingStrategy) error {
	if s == nil || s.Name() == "" {
		return fmt.Errorf("flit: ordering strategy with empty name")
	}
	id := s.ID()
	if id < 0 || id > 255 {
		return fmt.Errorf("flit: ordering %q ID %d outside the 8-bit header field", s.Name(), int(id))
	}
	key := strings.ToLower(s.Name())
	registry.Lock()
	defer registry.Unlock()
	if dup, ok := registry.byName[key]; ok {
		return fmt.Errorf("flit: ordering name %q already registered (ID %d)", dup.Name(), int(dup.ID()))
	}
	if dup, ok := registry.byID[id]; ok {
		return fmt.Errorf("flit: ordering ID %d already registered as %q", int(id), dup.Name())
	}
	registry.byName[key] = s
	registry.byID[id] = s
	return nil
}

// MustRegisterOrdering is RegisterOrdering for init-time use; panics on error.
func MustRegisterOrdering(s OrderingStrategy) {
	if err := RegisterOrdering(s); err != nil {
		panic(err)
	}
}

// OrderingStrategyByID resolves the wire identifier carried in packet
// headers and platform configurations.
func OrderingStrategyByID(id Ordering) (OrderingStrategy, bool) {
	registry.RLock()
	defer registry.RUnlock()
	s, ok := registry.byID[id]
	return s, ok
}

// LookupOrderingStrategy resolves a registry name, case-insensitively.
func LookupOrderingStrategy(name string) (OrderingStrategy, bool) {
	registry.RLock()
	defer registry.RUnlock()
	s, ok := registry.byName[strings.ToLower(name)]
	return s, ok
}

// ParseOrdering resolves a strategy name onto its wire ID, failing with the
// registered names when unknown.
func ParseOrdering(name string) (Ordering, error) {
	s, ok := LookupOrderingStrategy(name)
	if !ok {
		return 0, fmt.Errorf("flit: unknown ordering %q (registered: %v)", name, OrderingNames())
	}
	return s.ID(), nil
}

// OrderingStrategies returns every registered strategy sorted by ID (paper
// orderings first by construction), then name.
func OrderingStrategies() []OrderingStrategy {
	registry.RLock()
	out := make([]OrderingStrategy, 0, len(registry.byID))
	for _, s := range registry.byID {
		out = append(out, s)
	}
	registry.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].ID() != out[j].ID() {
			return out[i].ID() < out[j].ID()
		}
		return out[i].Name() < out[j].Name()
	})
	return out
}

// OrderingNames returns the registered strategy names in ID order.
func OrderingNames() []string {
	strategies := OrderingStrategies()
	names := make([]string, len(strategies))
	for i, s := range strategies {
		names[i] = s.Name()
	}
	return names
}

// RegisterLinkCoding adds a link coding scheme to the registry. The name
// "none" is reserved for the uncoded default.
func RegisterLinkCoding(s LinkCodingScheme) error {
	if s == nil || s.Name() == "" {
		return fmt.Errorf("flit: link coding with empty name")
	}
	key := strings.ToLower(s.Name())
	if key == "none" {
		return fmt.Errorf("flit: link coding name %q is reserved for the uncoded default", s.Name())
	}
	registry.Lock()
	defer registry.Unlock()
	if _, ok := registry.coding[key]; ok {
		return fmt.Errorf("flit: link coding %q already registered", s.Name())
	}
	registry.coding[key] = s
	return nil
}

// MustRegisterLinkCoding is RegisterLinkCoding for init-time use.
func MustRegisterLinkCoding(s LinkCodingScheme) {
	if err := RegisterLinkCoding(s); err != nil {
		panic(err)
	}
}

// LookupLinkCoding resolves a coding name, case-insensitively. The empty
// name and "none" both mean "no coding" and resolve to (nil, true).
func LookupLinkCoding(name string) (LinkCodingScheme, bool) {
	key := strings.ToLower(strings.TrimSpace(name))
	if key == "" || key == "none" {
		return nil, true
	}
	registry.RLock()
	defer registry.RUnlock()
	s, ok := registry.coding[key]
	return s, ok
}

// CanonicalLinkCodingName maps any accepted spelling of a coding name onto
// its canonical form: "" for uncoded (covering "none" in any case) and the
// registered Name() spelling otherwise. ok is false for unknown names.
// Content addresses and display rows must go through this, so "Gray",
// "gray " and "gray" cannot split the cache key space.
func CanonicalLinkCodingName(name string) (canonical string, ok bool) {
	scheme, ok := LookupLinkCoding(name)
	if !ok {
		return "", false
	}
	if scheme == nil {
		return "", true
	}
	return scheme.Name(), true
}

// LinkCodingDisplayName renders a coding name for result rows and content
// addresses: "none" for uncoded links, the registered spelling otherwise.
// Unknown names come back as written.
func LinkCodingDisplayName(name string) string {
	canonical, ok := CanonicalLinkCodingName(name)
	switch {
	case !ok:
		return name
	case canonical == "":
		return "none"
	default:
		return canonical
	}
}

// LinkCodingNames returns the registered coding names, sorted, with "none"
// first.
func LinkCodingNames() []string {
	registry.RLock()
	names := make([]string, 0, len(registry.coding)+1)
	for _, s := range registry.coding {
		names = append(names, s.Name())
	}
	registry.RUnlock()
	sort.Strings(names)
	return append([]string{"none"}, names...)
}

// funcStrategy adapts plain functions to OrderingStrategy; the built-ins
// and most custom strategies are stateless, so a struct of fields is all
// they need.
type funcStrategy struct {
	name         string
	id           Ordering
	interleave   bool
	emitsPartner bool
	order        func(weights, inputs []bitutil.Word, laneBits int) ([]bitutil.Word, []bitutil.Word, []int)
}

func (s funcStrategy) Name() string       { return s.name }
func (s funcStrategy) ID() Ordering       { return s.id }
func (s funcStrategy) Interleave() bool   { return s.interleave }
func (s funcStrategy) EmitsPartner() bool { return s.emitsPartner }
func (s funcStrategy) Order(w, in []bitutil.Word, laneBits int) ([]bitutil.Word, []bitutil.Word, []int) {
	return s.order(w, in, laneBits)
}

// NewOrderingStrategy wraps an order function as a registrable strategy —
// the constructor custom strategies use. order receives the task's weights
// and inputs and the lane width; it must return equal-length ordered
// slices, plus a partner table iff emitsPartner.
func NewOrderingStrategy(name string, id Ordering, interleave, emitsPartner bool,
	order func(weights, inputs []bitutil.Word, laneBits int) ([]bitutil.Word, []bitutil.Word, []int)) OrderingStrategy {
	return funcStrategy{name: name, id: id, interleave: interleave, emitsPartner: emitsPartner, order: order}
}

// Wire IDs of the related-work strategies. 0..2 are the paper's O0/O1/O2
// (declared in geometry.go); new built-ins continue the sequence.
const (
	// HammingNN is greedy nearest-neighbor ordering by inter-value Hamming
	// distance (Li et al. 2020).
	HammingNN Ordering = 3
	// PopcountAsc is ascending '1'-count affiliated ordering (Han et al.).
	PopcountAsc Ordering = 4
)

func init() {
	MustRegisterOrdering(NewOrderingStrategy("O0", Baseline, false, false,
		func(w, in []bitutil.Word, _ int) ([]bitutil.Word, []bitutil.Word, []int) {
			return w, in, nil
		}))
	MustRegisterOrdering(NewOrderingStrategy("O1", Affiliated, true, false,
		affiliatedBy(core.OrderDescending)))
	MustRegisterOrdering(NewOrderingStrategy("O2", Separated, true, true,
		func(w, in []bitutil.Word, laneBits int) ([]bitutil.Word, []bitutil.Word, []int) {
			sep := core.SeparatedOrder(w, in, laneBits)
			return sep.Weights, sep.Inputs, sep.PartnerIndex
		}))
	MustRegisterOrdering(NewOrderingStrategy("hamming-nn", HammingNN, true, false,
		func(w, in []bitutil.Word, laneBits int) ([]bitutil.Word, []bitutil.Word, []int) {
			ordered, _ := core.HammingNNOrder(core.ZipPairs(w, in), laneBits)
			ow, oi := core.SplitPairs(ordered)
			return ow, oi, nil
		}))
	MustRegisterOrdering(NewOrderingStrategy("popcount-asc", PopcountAsc, true, false,
		affiliatedBy(core.OrderAscending)))

	MustRegisterLinkCoding(grayScheme{})
	MustRegisterLinkCoding(businvertScheme{segBits: BusinvertSegBits})
}

// affiliatedBy builds an affiliated ordering from a popcount word order:
// the weight column is ordered by order and the input column gathered
// through the same permutation, so each input stays with its weight.
func affiliatedBy(order func([]bitutil.Word, int) ([]bitutil.Word, []int)) func(w, in []bitutil.Word, laneBits int) ([]bitutil.Word, []bitutil.Word, []int) {
	return func(w, in []bitutil.Word, laneBits int) ([]bitutil.Word, []bitutil.Word, []int) {
		if len(w) != len(in) {
			panic(fmt.Sprintf("flit: %d weights vs %d inputs", len(w), len(in)))
		}
		ow, perm := order(w, laneBits)
		return ow, core.Gather(in, perm), nil
	}
}

// grayScheme transmits the Gray-code transform of each flit: enc[i] =
// v[i] XOR v[i+1] (enc[msb] = v[msb]). The transform is bijective (decode
// is a prefix XOR from the MSB), needs no extra wires, and changes which
// bit positions toggle between consecutive payloads — the classic
// low-power bus encoding the ordering approach competes with.
type grayScheme struct{}

func (grayScheme) Name() string             { return "gray" }
func (grayScheme) ExtraLines(width int) int { return 0 }
func (grayScheme) New(width int) (LinkCoding, error) {
	if width <= 0 {
		return nil, fmt.Errorf("flit: gray coding on non-positive width %d", width)
	}
	return &grayCoding{wire: bitutil.NewVec(width), enc: bitutil.NewVec(width)}, nil
}

// grayCoding is the per-link Gray-coded wire state. wire holds the pattern
// currently on the wires, enc is the encode scratch; after each beat the two
// swap roles, so the per-flit transform allocates nothing (a saturated mesh
// runs this once per flit per link).
type grayCoding struct {
	wire, enc bitutil.Vec
}

func (c *grayCoding) Transitions(payload bitutil.Vec) int {
	GrayEncodeInto(payload, c.enc)
	t := c.wire.Transitions(c.enc)
	c.wire, c.enc = c.enc, c.wire
	return t
}

// GrayEncode returns the bitwise Gray transform of v: out[i] = v[i] XOR
// v[i+1] for i below the MSB, out[msb] = v[msb]. Exported so tests and
// offline trace recounts can reproduce the on-wire pattern; hot paths use
// GrayEncodeInto with a reused destination instead.
func GrayEncode(v bitutil.Vec) bitutil.Vec {
	out := bitutil.NewVec(v.Width())
	GrayEncodeInto(v, out)
	return out
}

// GrayEncodeInto writes the bitwise Gray transform of v into out, which must
// have the same width. Word-parallel: each backing word is XORed with the
// stream shifted right by one, borrowing the next word's low bit.
func GrayEncodeInto(v, out bitutil.Vec) {
	if v.Width() != out.Width() {
		panic(fmt.Sprintf("flit: gray encode %d-bit vector into %d-bit destination", v.Width(), out.Width()))
	}
	src := v.Words()
	dst := out.Words()
	for k := range src {
		w := src[k] >> 1
		if k+1 < len(src) {
			w |= src[k+1] << 63
		}
		dst[k] = src[k] ^ w
	}
}

// businvertScheme wraps internal/businvert as a registered link coding:
// segmented bus-invert with one invert line per segBits-wide segment. The
// invert-line flips count toward BT and the extra wires toward link power —
// the overheads the paper's §II holds against this encoding family.
type businvertScheme struct {
	segBits int
}

func (businvertScheme) Name() string               { return "businvert" }
func (s businvertScheme) ExtraLines(width int) int { return width / s.segBits }
func (s businvertScheme) New(width int) (LinkCoding, error) {
	enc, err := businvert.NewEncoder(width, s.segBits)
	if err != nil {
		return nil, err
	}
	return businvertCoding{enc: enc}, nil
}

// BusinvertSegBits is the segment width of the registered "businvert"
// scheme: one invert line per 8-bit segment, which scales classic
// bus-invert to the paper's 128- and 512-bit links.
const BusinvertSegBits = 8

type businvertCoding struct {
	enc *businvert.Encoder
}

func (c businvertCoding) Transitions(payload bitutil.Vec) int {
	return c.enc.Drive(payload)
}
