package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"nocbt/internal/obs"
)

// run accumulates one benchmark process's measurements and checks.
type run struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	buildDir string
	prov     provenance

	// tracer is nil in timed runs and in the untraced phase of a traced
	// run, which makes every span call a no-op there.
	tracer  *obs.Tracer
	profile bytes.Buffer
	tid     int64

	mu        sync.Mutex
	attempted int
	failed    int
	problems  []string

	e2e     map[string]float64
	layer   map[string]float64
	latency map[string]latency
	counts  map[string]int64
	digests map[string]string
}

// latency summarizes one latency class of a phase. P90 is reported with
// its sample count: it is trustworthy only from about 100 samples.
type latency struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50_ms"`
	P90 float64 `json:"p90_ms"`
}

func newRun(workload string, seed int64, window time.Duration, traced bool, buildDir string) *run {
	r := &run{
		workload: workload,
		seed:     seed,
		window:   window,
		traced:   traced,
		buildDir: buildDir,
		prov:     newProvenance(seed),
		e2e:      map[string]float64{},
		layer:    map[string]float64{},
		latency:  map[string]latency{},
		counts:   map[string]int64{},
		digests:  map[string]string{},
	}
	return r
}

// problem records a failed output check that is not tied to one op.
func (r *run) problem(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// opDone counts one attempted op, and a failure when err is non-nil.
func (r *run) opDone(err error) {
	r.mu.Lock()
	r.attempted++
	if err != nil {
		r.failed++
	}
	r.mu.Unlock()
	if err != nil {
		r.problem("op failed: %v", err)
	}
}

func (r *run) failedFrac() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

// span records fn as a span on the tracer (a plain call when untraced).
func (r *run) span(name, cat string, tid int64, fn func() error) error {
	sp := r.tracer.Begin(name, cat, 1, tid, r.tracer.Ticks())
	err := fn()
	r.tracer.End(sp, r.tracer.Ticks())
	return err
}

// spec describes how to measure one phase of a workload.
type spec struct {
	// reps is how many times setup runs; setup_s is their median.
	reps  int
	setup func(ctx context.Context) error
	// op runs until the window closes, at least minOps times. It counts
	// its own attempts through timeOp and returns their latencies.
	minOps int
	op     func(ctx context.Context) []timing
	// primary is the latency class op_ms_p50 reports.
	primary string
}

// timing is one successful call's latency, by class.
type timing struct {
	class string
	ms    float64
}

// timeOp runs fn as one attempted call of the given class.
func (r *run) timeOp(class string, fn func() error) []timing {
	t0 := time.Now()
	err := fn()
	d := ms(time.Since(t0))
	r.opDone(err)
	if err != nil {
		return nil
	}
	return []timing{{class, d}}
}

// phase is one measured pass over a spec.
type phase struct {
	setups []float64            // seconds
	lat    map[string][]float64 // ms per op, by class
	ops    int
	wall   time.Duration
	cpu    time.Duration
	alloc  uint64 // bytes allocated during the op window
	rssMB  float64
}

func (r *run) measure(ctx context.Context, s spec) (phase, error) {
	p := phase{lat: map[string][]float64{}}
	for i := 0; i < s.reps; i++ {
		t0 := time.Now()
		if err := s.setup(ctx); err != nil {
			return p, fmt.Errorf("setup: %w", err)
		}
		p.setups = append(p.setups, time.Since(t0).Seconds())
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	start := time.Now()
	for n := 0; n < s.minOps || time.Since(start) < r.window; n++ {
		for _, t := range s.op(ctx) {
			p.lat[t.class] = append(p.lat[t.class], t.ms)
			p.ops++
		}
	}
	p.wall = time.Since(start)
	p.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&ms1)
	p.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	p.rssMB = maxRSSMB()
	return p, nil
}

// setE2E fills the end-to-end metrics from a phase.
func (r *run) setE2E(s spec, p phase) {
	r.e2e["setup_s"] = median(p.setups)
	r.e2e["op_ms_p50"] = median(p.lat[s.primary])
	r.e2e["ops_per_s"] = float64(p.ops) / p.wall.Seconds()
	r.e2e["max_rss_mb"] = p.rssMB
	r.latency["setup"] = latency{len(p.setups), 1e3 * median(p.setups), 1e3 * quantile(p.setups, 0.9)}
	for class, l := range p.lat {
		r.latency[class] = latency{len(l), median(l), quantile(l, 0.9)}
	}
}

// startTrace turns on the span tracer and the CPU profiler for the
// traced phase.
func (r *run) startTrace() error {
	r.tracer = obs.NewTracer(0)
	r.tid = r.tracer.NextTID()
	return pprof.StartCPUProfile(&r.profile)
}

// finishTrace stops profiling, writes the Chrome trace and CPU profile
// under the build directory, and fills the cpu.* shares, the tracing
// overhead (traced minus untraced, per end-to-end metric) and the
// process-level layer metrics.
func (r *run) finishTrace(s spec, untraced, traced phase) error {
	pprof.StopCPUProfile()
	shares, err := cpuShares(r.profile.Bytes())
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for k, v := range shares {
		r.layer[k] = v
	}
	before := map[string]float64{}
	r.setE2E(s, untraced)
	for k, v := range r.e2e {
		before[k] = v
	}
	r.setE2E(s, traced)
	for k, v := range r.e2e {
		r.layer["trace_overhead."+k] = v - before[k]
	}
	r.layer["alloc_mb_per_op"] = float64(untraced.alloc) / 1e6 / float64(max(untraced.ops, 1))
	r.layer["proc.cpu_per_wall"] = untraced.cpu.Seconds() / untraced.wall.Seconds()

	if err := os.MkdirAll(r.buildDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(r.buildDir, fmt.Sprintf("trace-%s-%d", r.workload, r.seed))
	f, err := os.Create(base + ".json")
	if err != nil {
		return err
	}
	if err := r.tracer.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	r.counts["trace.spans"] = int64(r.tracer.Len())
	return os.WriteFile(base+".pprof", r.profile.Bytes(), 0o644)
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set so far, in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between closest ranks.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// provenance says which build, host and settings produced a result.
type provenance struct {
	GoVersion  string `json:"go_version"`
	Revision   string `json:"vcs_revision"`
	Modified   bool   `json:"vcs_modified"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Seed       int64  `json:"seed"`
	Start      string `json:"start"`
}

func newProvenance(seed int64) provenance {
	p := provenance{
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Seed:       seed,
		Start:      time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Modified = s.Value == "true"
			}
		}
	}
	return p
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
