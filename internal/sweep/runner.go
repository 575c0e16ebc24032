package sweep

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"nocbt/internal/accel"
	"nocbt/internal/dnn"
	"nocbt/internal/flit"
	"nocbt/internal/noc"
	"nocbt/internal/obs"
	"nocbt/internal/stats"
	"nocbt/internal/tensor"
)

// workloadKey identifies one materialized (workload, seed) pair.
type workloadKey struct {
	name string
	seed int64
}

// workloadEntry memoizes one Build call. The sync.Once lets every job that
// needs the pair block on a single materialization instead of serializing
// the whole sweep behind one lock or training the same model per job.
type workloadEntry struct {
	once  sync.Once
	model *dnn.Model
	input *tensor.Tensor
	err   error
}

// runner carries the per-sweep state: the spec and the materialized
// workload cache.
type runner struct {
	mu        sync.Mutex
	workloads map[workloadKey]*workloadEntry
}

// Run executes every job of the spec on a bounded worker pool and returns
// one Result per job in expansion order. A job error aborts the sweep:
// already-running jobs finish, still-queued jobs are skipped, and the
// lowest-index error that was actually recorded is returned. Cancelling
// the context aborts the sweep promptly — workers stop picking up jobs,
// in-flight inferences bail between simulator cycles, and Run returns
// ctx.Err().
func Run(ctx context.Context, spec Spec) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	jobs := spec.Jobs()
	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	r := &runner{workloads: make(map[workloadKey]*workloadEntry)}
	results := make([]Result, len(jobs))
	errs := make([]error, len(jobs))
	var failed atomic.Bool
	ch := make(chan Job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range ch {
				if failed.Load() || ctx.Err() != nil {
					continue // drain the queue without running
				}
				results[job.Index], errs[job.Index] = r.runJob(ctx, job)
				if errs[job.Index] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	for _, job := range jobs {
		ch <- job
	}
	close(ch)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		// A cancelled sweep has no complete result set; report the
		// cancellation itself rather than whichever job saw it first.
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sweep: job %s: %w", jobs[i].Name(), err)
		}
	}
	fillReductions(results, len(spec.Orderings))
	return results, nil
}

// workload returns the memoized materialization for the job's (workload,
// seed) pair, building it on first use. The Build rng is created here, one
// per materialization, seeded from the spec seed — results cannot depend on
// which worker gets here first.
func (r *runner) workload(w Workload, seed int64) *workloadEntry {
	key := workloadKey{name: w.Name, seed: seed}
	r.mu.Lock()
	e, ok := r.workloads[key]
	if !ok {
		e = &workloadEntry{}
		r.workloads[key] = e
	}
	r.mu.Unlock()
	e.once.Do(func() {
		e.model, e.input, e.err = w.Build(seed, rand.New(rand.NewSource(seed)))
		if e.err == nil && (e.model == nil || e.input == nil) {
			e.err = fmt.Errorf("workload %q returned nil model or input", w.Name)
		}
	})
	return e
}

// runJob measures one grid point: build the platform, apply the job's
// precision, coding and topology overrides, and Measure a private clone of
// the shared model.
func (r *runner) runJob(ctx context.Context, job Job) (Result, error) {
	entry := r.workload(job.Workload, job.Seed)
	if entry.err != nil {
		return Result{}, entry.err
	}
	cfg := job.Platform.Build(job.Geometry)
	cfg.Ordering = job.Ordering
	if job.Precision > 0 && cfg.Geometry.Format.IsFixed() {
		// A uniform lane-width override: every NoC layer flitizes at this
		// width. Non-fixed geometries skip the axis (precision stays in the
		// row label, the engine keeps the geometry's own format).
		cfg.Precisions = []int{job.Precision}
	}
	if job.Coding != "" {
		// A listed coding — "none" included — overrides the platform's own
		// LinkCoding; an empty axis value keeps it.
		cfg.LinkCoding = job.Coding
	}
	if job.Topology != "" {
		// A listed topology — "mesh" included — overrides the platform's
		// own interconnect; an empty axis value keeps it.
		cfg.Mesh.Topology = job.Topology
	}
	res, err := Measure(ctx, job.Platform.Name, cfg, entry.model.CloneForInference(), entry.input, job.Batch)
	if err != nil {
		return Result{}, err
	}
	res.Workload = job.Workload.Name
	res.Seed = job.Seed
	res.Precision = job.Precision
	return res, nil
}

// Measure runs the model through the NoC on one engine built from cfg — a
// single Infer at batch 1, or batch identical inferences sharing the mesh
// through InferRepeated under PipelinedLayers — and reads every counter
// into a Result. The row carries the platform name and the coding and
// topology the engine actually ran, in canonical form. Workload, Seed and
// Precision are grid coordinates the caller fills in; ReductionPct needs
// the group's baseline row.
func Measure(ctx context.Context, platform string, cfg accel.Config, model *dnn.Model, input *tensor.Tensor, batch int) (Result, error) {
	if batch < 1 {
		return Result{}, fmt.Errorf("sweep: batch size %d < 1", batch)
	}
	if batch > 1 {
		// The batch axis measures sustained concurrent traffic; the
		// paper-faithful SerialLayers default would reduce it to N scaled
		// serial rows.
		cfg.LayerMode = accel.PipelinedLayers
	}
	eng, err := accel.New(cfg, model)
	if err != nil {
		return Result{}, err
	}
	if t := obs.FromContext(ctx); t != nil {
		eng.SetSpanTracer(t)
	}
	// accel.New has validated both names, so the canonical forms exist.
	topology, _ := noc.CanonicalTopologyName(cfg.Mesh.Topology)
	res := Result{
		Platform:     platform,
		Model:        model.Name(),
		Geometry:     cfg.Geometry,
		Format:       cfg.Geometry.Format.String(),
		LinkBits:     cfg.Geometry.LinkBits,
		Ordering:     cfg.Ordering,
		OrderingName: cfg.Ordering.String(),
		Coding:       flit.LinkCodingDisplayName(cfg.LinkCoding),
		Topology:     topology,
		Batch:        batch,
	}
	if batch == 1 {
		if _, err := eng.Infer(ctx, input); err != nil {
			return Result{}, err
		}
		if c := eng.Cycles(); c > 0 {
			res.Throughput = 1000 / float64(c)
			res.AvgLatencyCycles = float64(c)
		}
	} else {
		if _, err := eng.InferRepeated(ctx, input, batch); err != nil {
			return Result{}, err
		}
		st := eng.LastBatchStats()
		res.Throughput = st.Throughput()
		res.AvgLatencyCycles = st.AvgLatencyCycles
	}
	res.TotalBT = eng.TotalBT()
	res.Cycles = eng.Cycles()
	res.Packets = eng.TaskPackets() + eng.ResultPackets()
	res.Flits = eng.TotalFlits()
	// Router-link flit-hops over injected flits is the mean hop count —
	// the traffic-distance metric topologies trade against wiring.
	res.RouterFlits = eng.NoCStats().RouterFlits
	ec := eng.EnergyCounters()
	res.MACBitOps = ec.MACBitOps
	res.WeightRegBits = ec.WeightRegBits
	res.FlitBits = ec.FlitBits
	return res, nil
}

// fillReductions computes each result's BT reduction relative to its
// group's Baseline run, matching the serial experiment arithmetic. Spec.Jobs
// expands orderings innermost, so a reduction group — one job minus its
// ordering — is a contiguous block of orderings rows. Groups swept without a
// Baseline ordering keep ReductionPct == 0.
func fillReductions(results []Result, orderings int) {
	for start := 0; start < len(results); start += orderings {
		group := results[start : start+orderings]
		base, ok := 0.0, false
		for _, res := range group {
			if res.Ordering == flit.Baseline {
				base, ok = float64(res.TotalBT), true
			}
		}
		if !ok {
			continue
		}
		for i := range group {
			group[i].ReductionPct = 100 * stats.ReductionRate(base, float64(group[i].TotalBT))
		}
	}
}
