package nocbt

// The experiment registry — pillar two of the v2 API. Every paper table
// and figure (and the open sweep grid) is an Experiment: a named, described
// unit that turns Params into a typed *Result under a context. The
// package-level registry makes the set enumerable, so tools like cmd/btexp
// list and run experiments without hardcoding them, and new experiments
// register themselves without touching the driver.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"nocbt/internal/flit"
)

// Params carries the knobs shared by the registered experiments. The zero
// value selects every default (untrained weights, full-size streams);
// experiments ignore fields they have no use for.
type Params struct {
	// Seed fixes weight initialization, training and input synthesis.
	// Every value is honored as given — 0 is a valid seed (cmd/btexp
	// defaults its -seed flag to 1).
	Seed int64
	// Trained selects converged weights for the with-NoC experiments
	// (Fig. 12/13). The bit-level experiments always compare random vs
	// trained populations, as the paper's figures do.
	Trained bool
	// Quick shrinks stream lengths for a fast pass (Tab. I drops from
	// 10,000 to 500 packets).
	Quick bool
	// Step is the Fig. 1 grid sampling step (0 → 4).
	Step int
	// Flits is the number of flits the Fig. 9 grids display (0 → 20).
	Flits int
	// Table1 overrides the Tab. I stream configuration; the zero value
	// uses the paper's setup (10,000 packets, 25-value kernels, 8 lanes).
	Table1 Table1Config
	// BTReductionPct is the §V-C reduction rate applied to the link-power
	// model (0 → 40.85, the paper's best with-NoC figure).
	BTReductionPct float64
	// Sweep configures the "sweep" experiment's grid; nil sweeps the
	// paper's full default grid.
	Sweep *SweepSpec
}

// withDefaults resolves the zero values shared across experiments. Seed
// is deliberately not defaulted: 0 is a valid seed.
func (p Params) withDefaults() Params {
	if p.Step <= 0 {
		p.Step = 4
	}
	if p.Flits <= 0 {
		p.Flits = 20
	}
	if p.BTReductionPct == 0 {
		p.BTReductionPct = 40.85
	}
	return p
}

// Experiment is one runnable unit of the paper's evaluation.
type Experiment interface {
	// Name is the registry key (e.g. "fig12"), unique and stable.
	Name() string
	// Describe is a one-line human summary for listings.
	Describe() string
	// Run executes the experiment under ctx and returns its typed result.
	// Long runs honor context cancellation and deadlines.
	Run(ctx context.Context, p Params) (*Result, error)
}

// funcExperiment adapts a closure to the Experiment interface.
type funcExperiment struct {
	name     string
	describe string
	run      func(ctx context.Context, p Params) (*Result, error)
}

func (e funcExperiment) Name() string     { return e.name }
func (e funcExperiment) Describe() string { return e.describe }
func (e funcExperiment) Run(ctx context.Context, p Params) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return e.run(ctx, p)
}

// NewExperiment wraps a run function as a registrable Experiment.
func NewExperiment(name, describe string, run func(ctx context.Context, p Params) (*Result, error)) Experiment {
	return funcExperiment{name: name, describe: describe, run: run}
}

// registry is the package-level experiment index.
var registry = struct {
	mu sync.RWMutex
	m  map[string]Experiment
}{m: make(map[string]Experiment)}

// Register adds an experiment to the package registry. Empty and duplicate
// names are rejected.
func Register(e Experiment) error {
	if e == nil || e.Name() == "" {
		return fmt.Errorf("nocbt: experiment with empty name")
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.m[e.Name()]; dup {
		return fmt.Errorf("nocbt: experiment %q already registered", e.Name())
	}
	registry.m[e.Name()] = e
	return nil
}

// MustRegister is Register for init-time registration; it panics on error.
func MustRegister(e Experiment) {
	if err := Register(e); err != nil {
		panic(err)
	}
}

// LookupExperiment returns the named experiment, if registered.
func LookupExperiment(name string) (Experiment, bool) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	e, ok := registry.m[name]
	return e, ok
}

// Experiments returns every registered experiment sorted by name.
func Experiments() []Experiment {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	out := make([]Experiment, 0, len(registry.m))
	for _, e := range registry.m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// ExperimentNames returns the sorted registered names.
func ExperimentNames() []string {
	exps := Experiments()
	names := make([]string, len(exps))
	for i, e := range exps {
		names[i] = e.Name()
	}
	return names
}

// fingerprintParams is the canonical, JSON-stable shadow of Params used
// for content addressing. Defaults are resolved before hashing so that
// parameter sets an experiment cannot distinguish (e.g. Step 0 vs Step 4)
// share one address. Sweep platforms hash as name plus the content
// addresses of the configs they build (the Build func itself is not
// serializable, but what it constructs is).
type fingerprintParams struct {
	Seed           int64             `json:"seed"`
	Trained        bool              `json:"trained"`
	Quick          bool              `json:"quick"`
	Step           int               `json:"step"`
	Flits          int               `json:"flits"`
	Table1         Table1Config      `json:"table1"`
	BTReductionPct float64           `json:"bt_reduction_pct"`
	Sweep          *fingerprintSweep `json:"sweep,omitempty"`
}

type fingerprintSweep struct {
	// Platforms carries, per swept platform, its name plus the content
	// address of the config it builds for every swept geometry — so two
	// FixedPlatform axes sharing a display name but wrapping different
	// configurations cannot collide to one cache address.
	Platforms []string `json:"platforms"`
	Formats   []string `json:"formats"`
	Orderings []string `json:"orderings"`
	Models    []string `json:"models"`
	Trained   bool     `json:"trained"`
	Seeds     []int64  `json:"seeds"`
	Batches   []int    `json:"batches"`
	// Codings hashes in canonical display form ("" resolves to "none"), so
	// the two spellings of uncoded links share one address.
	Codings []string `json:"codings"`
	// Precisions is the uniform lane-width axis; omitempty keeps every
	// pre-precision fingerprint byte-identical.
	Precisions []int `json:"precisions,omitempty"`
	// Topologies hashes in canonical display form ("" resolves to "mesh"),
	// so every accepted spelling of the default interconnect shares one
	// address; omitempty keeps pre-topology fingerprints byte-identical.
	Topologies []string `json:"topologies,omitempty"`
	// Workers is deliberately excluded: sweep results are bit-identical
	// for any worker count, so it must not split the address space.
}

// Fingerprint returns the canonical JSON encoding of the parameters —
// the content-address input used by result caches. Two Params values that
// cannot produce different results (after default resolution) fingerprint
// identically.
func (p Params) Fingerprint() ([]byte, error) {
	p = p.withDefaults()
	fp := fingerprintParams{
		Seed:    p.Seed,
		Trained: p.Trained,
		Quick:   p.Quick,
		Step:    p.Step,
		Flits:   p.Flits,
		// Table1 hashes in its effective form (zero resolves to the
		// paper's setup under the run's seed and quick flag), matching
		// what the table1 experiment actually measures.
		Table1:         table1Params(p),
		BTReductionPct: p.BTReductionPct,
	}
	if p.Sweep != nil {
		s := p.Sweep.withDefaults()
		fs := &fingerprintSweep{Trained: s.Trained, Seeds: s.Seeds, Batches: s.Batches, Precisions: s.Precisions}
		for _, pl := range s.Platforms {
			entry := pl.Name
			for _, g := range s.Geometries {
				pfp, err := PlatformFingerprint(pl.Build(g))
				if err != nil {
					return nil, fmt.Errorf("nocbt: fingerprinting sweep platform %q: %w", pl.Name, err)
				}
				entry += "|" + pfp[:16]
			}
			fs.Platforms = append(fs.Platforms, entry)
		}
		for _, g := range s.Geometries {
			fs.Formats = append(fs.Formats, fmt.Sprintf("%s/%d", g.Format, g.LinkBits))
		}
		for _, o := range s.Orderings {
			fs.Orderings = append(fs.Orderings, o.String())
		}
		for _, m := range s.Models {
			fs.Models = append(fs.Models, string(m))
		}
		// Codings and topologies hash in display form, so every accepted
		// spelling of one name shares an address; unknown names hash as
		// written (the sweep rejects them before any result exists to
		// cache).
		for _, c := range s.Codings {
			fs.Codings = append(fs.Codings, flit.LinkCodingDisplayName(c))
		}
		for _, tn := range s.Topologies {
			fs.Topologies = append(fs.Topologies, TopologyDisplayName(tn))
		}
		fp.Sweep = fs
	}
	return json.Marshal(fp)
}

// ExperimentCacheKey returns the content address of one (experiment,
// params) pair: a SHA-256 hex digest over the experiment name and the
// canonicalized parameters. Deterministic experiments (every registered
// one) can therefore be served from a cache keyed by this string.
func ExperimentCacheKey(name string, p Params) (string, error) {
	fp, err := p.Fingerprint()
	if err != nil {
		return "", fmt.Errorf("nocbt: fingerprinting params for %q: %w", name, err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "experiment\x00%s\x00", name)
	h.Write(fp)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// RunExperiment looks up and runs a registered experiment in one call,
// failing with the available names when the name is unknown.
func RunExperiment(ctx context.Context, name string, p Params) (*Result, error) {
	e, ok := LookupExperiment(name)
	if !ok {
		return nil, fmt.Errorf("nocbt: unknown experiment %q (available: %v)", name, ExperimentNames())
	}
	return e.Run(ctx, p)
}
