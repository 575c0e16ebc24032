// Command nocbench is the nocbt benchmark: three workloads that drive the
// system through its public entry points (the experiment registry and
// sweep runner, the trained-model and Tab. I APIs, and the serving HTTP
// handler), check every output, and print end-to-end metrics — or, with
// -trace 1, per-layer metrics from a traced, profiled run.
//
// Usage, from the repository root:
//
//	bash nocbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out results.jsonl]
//	bash nocbench/run.sh compare old.jsonl new.jsonl
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it is the
// full run record (workload, seed, provenance, checks, exact work counts)
// that -out appends to a result set and compare reads back.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// workload is one benchmark traffic mix. run measures it into r.
type workload struct {
	name string
	run  func(ctx context.Context, r *run) error
}

var workloads = []workload{
	{"fig12-random", runFig12},
	{"table1-trained", runTable1},
	{"serve-lenet", runServe},
}

func main() { os.Exit(realMain(os.Args[1:])) }

func realMain(args []string) int {
	fs := flag.NewFlagSet("nocbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 15, "measurement window per phase, seconds")
	trace := fs.Int("trace", 0, "1 runs the traced, profiled run and prints per-layer metrics")
	out := fs.String("out", "", "append the run record to this JSON-lines result set")
	buildDir := fs.String("build-dir", ".bench_build", "directory for the Chrome trace and CPU profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bench, err := loadBenchmark()
	if err != nil {
		fmt.Fprintf(os.Stderr, "nocbench: %v\n", err)
		return 1
	}
	if fs.Arg(0) == "compare" {
		return compareMain(bench, fs.Args()[1:])
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "nocbench: need -workload one of %s, -seconds >= 1, -trace 0|1\n", workloadNames())
		return 2
	}

	r := newRun(w.name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *buildDir)
	// A run must end within three minutes; give up on a stuck one.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	if err := w.run(ctx, r); err != nil {
		fmt.Fprintf(os.Stderr, "nocbench: %s: %v\n", w.name, err)
		return 1
	}
	rec, err := r.record(bench)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nocbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nocbench: %v\n", err)
		return 1
	}
	if *out != "" {
		if err := appendLine(*out, line); err != nil {
			fmt.Fprintf(os.Stderr, "nocbench: %v\n", err)
			return 1
		}
	}
	r.report(os.Stderr, rec)
	fmt.Println(string(line))
	final, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nocbench: %v\n", err)
		return 1
	}
	fmt.Println(string(final))
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// metric is one reported value with its unit, as the result object
// carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract object printed as the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run of a result set: the result plus what produced it.
type record struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Trace      bool               `json:"trace"`
	Provenance provenance         `json:"provenance"`
	Latency    map[string]latency `json:"latency"`
	Counts     map[string]int64   `json:"counts,omitempty"`
	Digests    map[string]string  `json:"digests,omitempty"`
	Problems   []string           `json:"problems,omitempty"`
	Result     result             `json:"result"`
}

// declared is a metric list of BENCHMARK.json.
type declared []struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkFile is the part of BENCHMARK.json the benchmark reads: it is
// the one list of metric names, units and bounds.
type benchmarkFile struct {
	EndToEnd declared `json:"end_to_end"`
	PerLayer declared `json:"per_layer"`
}

// benchmarkPath is the benchmark definition, relative to the repository
// root the benchmark runs from.
const benchmarkPath = "BENCHMARK.json"

func loadBenchmark() (benchmarkFile, error) {
	var b benchmarkFile
	raw, err := os.ReadFile(benchmarkPath)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return b, fmt.Errorf("%s: %w", benchmarkPath, err)
	}
	return b, nil
}

// metrics returns every metric of the list, with the run's value (0 for a
// layer the workload does not exercise). A value the run produced under
// a name the list does not declare is an error.
func (d declared) metrics(vals map[string]float64) (map[string]metric, error) {
	out := map[string]metric{}
	for _, m := range d {
		out[m.Name] = metric{vals[m.Name], m.Unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %q is not declared in %s", name, benchmarkPath)
		}
	}
	return out, nil
}

func (r *run) record(b benchmarkFile) (record, error) {
	list, vals := b.EndToEnd, r.e2e
	if r.traced {
		list, vals = b.PerLayer, r.layer
	}
	metrics, err := list.metrics(vals)
	if err != nil {
		return record{}, err
	}
	return record{
		Workload:   r.workload,
		Seed:       r.seed,
		Trace:      r.traced,
		Provenance: r.prov,
		Latency:    r.latency,
		Counts:     r.counts,
		Digests:    r.digests,
		Problems:   r.problems,
		Result: result{
			Correct:   r.failed == 0 && len(r.problems) == 0 && r.attempted > 0,
			Attempted: r.attempted,
			Failed:    r.failed,
			Metrics:   metrics,
		},
	}, nil
}

// report prints a human-readable summary of a run to w.
func (r *run) report(w *os.File, rec record) {
	fmt.Fprintf(w, "nocbench %s seed=%d trace=%v  go=%s rev=%s modified=%v gomaxprocs=%d nproc=%d cpu=%q start=%s\n",
		r.workload, r.seed, r.traced, r.prov.GoVersion, r.prov.Revision, r.prov.Modified,
		r.prov.GOMAXPROCS, r.prov.NumCPU, r.prov.CPUModel, r.prov.Start)
	for _, n := range sortedKeys(rec.Result.Metrics) {
		m := rec.Result.Metrics[n]
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", n, m.Value, m.Unit)
	}
	for _, n := range sortedKeys(r.latency) {
		l := r.latency[n]
		fmt.Fprintf(w, "  latency %-24s p50 %.3f ms  p90 %.3f ms  (n=%d)\n", n, l.P50, l.P90, l.N)
	}
	for _, n := range sortedKeys(r.counts) {
		fmt.Fprintf(w, "  count %-26s %d\n", n, r.counts[n])
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d failed_frac=%.4f\n", r.attempted, r.failed, r.failedFrac())
	for _, p := range r.problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
