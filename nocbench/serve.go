package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"nocbt"
	"nocbt/internal/serve"
)

// serveRefs is how many served misses each run checks against a serial
// Engine.Infer on a fresh engine.
const serveRefs = 2

// server is one in-process serving stack behind a loopback HTTP listener.
type server struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
}

func (s *server) close() {
	s.ts.Close()
	s.srv.Close()
}

type inferReply struct {
	cache  string
	output []float32
}

// infer POSTs one LeNet inference and decodes the reply.
func (s *server) infer(ctx context.Context, seed, inputSeed int64) (inferReply, error) {
	body := fmt.Sprintf(`{"model":"lenet","seed":%d,"input_seed":%d}`, seed, inputSeed)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.ts.URL+"/v1/infer", strings.NewReader(body))
	if err != nil {
		return inferReply{}, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return inferReply{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return inferReply{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return inferReply{}, fmt.Errorf("input %d: status %d: %s", inputSeed, resp.StatusCode, bytes.TrimSpace(raw))
	}
	var out serve.InferResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return inferReply{}, fmt.Errorf("input %d: %w", inputSeed, err)
	}
	return inferReply{cache: resp.Header.Get("X-Cache"), output: out.Output}, nil
}

func (s *server) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.ts.URL+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// serveState is what the serving workload's clients share: every output
// served on a miss, keyed by input seed.
type serveState struct {
	mu     sync.Mutex
	served map[int64][]float32
	order  []int64 // input seeds in the order their misses completed
	next   int64
}

// runServe measures the serving daemon's stack in process: two closed-loop
// clients POST /v1/infer for LeNet over loopback, alternating a fresh
// input (a cache miss through batcher, pool and Engine.InferBatch) with a
// repeat of an input already served (a cache hit).
func runServe(ctx context.Context, r *run) error {
	st := &serveState{served: map[int64][]float32{}, next: 1 + rand.New(rand.NewSource(r.seed)).Int63n(1<<40)}
	var cur *server
	defer func() {
		if cur != nil {
			cur.close()
		}
	}()
	s := spec{
		reps: 3,
		setup: func(ctx context.Context) error {
			if cur != nil {
				cur.close()
				cur = nil
			}
			// A new server starts with an empty result cache.
			st.mu.Lock()
			st.served, st.order = map[int64][]float32{}, nil
			st.mu.Unlock()
			return r.span("serve.New + first inference", "serve", r.tid, func() error {
				srv, err := serve.New(serve.Config{})
				if err != nil {
					return err
				}
				cur = &server{srv: srv, ts: httptest.NewServer(srv.Handler())}
				cur.client = cur.ts.Client()
				_, err = st.miss(ctx, cur, r.seed)
				return err
			})
		},
		minOps:  2,
		primary: "miss",
	}
	// Each op is one round: both clients send a fresh input at once, wait
	// for the reply, then repeat an input already served.
	rngs := []*rand.Rand{rand.New(rand.NewSource(r.seed + 1)), rand.New(rand.NewSource(r.seed + 2))}
	s.op = func(ctx context.Context) []timing {
		out := make([][]timing, len(rngs))
		var wg sync.WaitGroup
		for c := range rngs {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				tid := int64(100 + c)
				out[c] = r.timeOp("miss", func() error {
					return r.span("POST /v1/infer miss", "http", tid, func() error {
						_, err := st.miss(ctx, cur, r.seed)
						return err
					})
				})
				out[c] = append(out[c], r.timeOp("hit", func() error {
					return r.span("POST /v1/infer hit", "http", tid, func() error {
						return st.hit(ctx, cur, r.seed, rngs[c])
					})
				})...)
			}(c)
		}
		wg.Wait()
		return append(out[0], out[1]...)
	}

	untraced, err := r.measure(ctx, s)
	if err != nil {
		return err
	}
	if err := checkReferences(ctx, r, st, false); err != nil {
		return err
	}
	if !r.traced {
		r.setE2E(s, untraced)
		return nil
	}

	if err := r.startTrace(); err != nil {
		return err
	}
	traced, err := r.measure(ctx, s)
	if err != nil {
		return err
	}
	r.layer["serve.hit_ms_p50"] = median(traced.lat["hit"])
	if err := scrapeServe(ctx, r, cur); err != nil {
		return err
	}
	if err := checkReferences(ctx, r, st, true); err != nil {
		return err
	}
	return r.finishTrace(s, untraced, traced)
}

// miss serves a fresh input and records its output.
func (st *serveState) miss(ctx context.Context, s *server, seed int64) (int64, error) {
	st.mu.Lock()
	in := st.next
	st.next++
	st.mu.Unlock()
	rep, err := s.infer(ctx, seed, in)
	if err != nil {
		return in, err
	}
	if rep.cache != "miss" || len(rep.output) == 0 {
		return in, fmt.Errorf("fresh input %d: X-Cache %q, %d outputs", in, rep.cache, len(rep.output))
	}
	st.mu.Lock()
	st.served[in] = rep.output
	st.order = append(st.order, in)
	st.mu.Unlock()
	return in, nil
}

// hit repeats an input already served and checks the cached reply equals
// the output of its miss.
func (st *serveState) hit(ctx context.Context, s *server, seed int64, rng *rand.Rand) error {
	st.mu.Lock()
	in := st.order[rng.Intn(len(st.order))]
	want := st.served[in]
	st.mu.Unlock()
	rep, err := s.infer(ctx, seed, in)
	if err != nil {
		return err
	}
	if rep.cache != "hit" {
		return fmt.Errorf("repeated input %d: X-Cache %q", in, rep.cache)
	}
	if !equalFloats(rep.output, want) {
		return fmt.Errorf("repeated input %d: cached output differs from its miss", in)
	}
	return nil
}

func equalFloats(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkReferences compares a seeded sample of served misses with a serial
// Engine.Infer of the same input on a fresh engine at the serving
// platform. With record set, the reference runs also feed the engine and
// NoC layer metrics.
func checkReferences(ctx context.Context, r *run, st *serveState, record bool) error {
	platform, err := serve.PlatformSpec{}.Build()
	if err != nil {
		return err
	}
	st.mu.Lock()
	picks := append([]int64(nil), st.order...)
	st.mu.Unlock()
	sort.Slice(picks, func(i, j int) bool { return picks[i] < picks[j] })
	rand.New(rand.NewSource(r.seed)).Shuffle(len(picks), func(i, j int) { picks[i], picks[j] = picks[j], picks[i] })
	if len(picks) > serveRefs {
		picks = picks[:serveRefs]
	}
	var builds, infers []float64
	var inferNS int64
	for _, in := range picks {
		model := nocbt.LeNet(r.seed)
		t0 := time.Now()
		var eng *nocbt.Engine
		err := r.span("NewEngine serving platform", "accel", r.tid, func() error {
			var err error
			eng, err = nocbt.NewEngine(platform, model)
			return err
		})
		if err != nil {
			return err
		}
		builds = append(builds, ms(time.Since(t0)))
		t0 = time.Now()
		var out *nocbt.Tensor
		err = r.span("Engine.Infer reference", "accel", r.tid, func() error {
			var err error
			out, err = eng.Infer(ctx, nocbt.SampleInput(model, in))
			return err
		})
		if err != nil {
			return err
		}
		d := time.Since(t0)
		infers = append(infers, ms(d))
		inferNS += d.Nanoseconds()
		st.mu.Lock()
		got := st.served[in]
		st.mu.Unlock()
		if !equalFloats(got, out.Data) {
			r.problem("served output for input %d differs from a serial Engine.Infer", in)
		}
		if record {
			r.layer["noc.cycles"] += float64(eng.Cycles())
			r.layer["noc.bt"] += float64(eng.TotalBT())
			r.layer["noc.flits"] += float64(eng.TotalFlits())
			r.layer["noc.flit_hops"] += float64(eng.NoCStats().RouterFlits)
		}
	}
	r.counts["references"] += int64(len(picks))
	if record && len(picks) > 0 {
		r.layer["noc.host_ns_per_cycle"] = float64(inferNS) / r.layer["noc.cycles"]
		r.layer["accel.engine_build_ms"] = median(builds)
		r.layer["accel.infer_ms.4x4_MC2"] = median(infers)
	}
	return nil
}

// scrapeServe reads the serving counters from /metrics and the flush and
// request spans from /debug/trace.
func scrapeServe(ctx context.Context, r *run, s *server) error {
	var prom, trace []byte
	err := r.span("GET /metrics", "http", r.tid, func() error {
		var err error
		prom, err = s.get(ctx, "/metrics")
		return err
	})
	if err != nil {
		return err
	}
	c := promCounters(prom)
	if b := c["nocbt_serve_infer_batches_total"]; b > 0 {
		r.layer["serve.batch_size_mean"] = c["nocbt_serve_infer_batched_requests_total"] / b
	}
	r.layer["serve.engine_builds"] = c["nocbt_serve_engine_builds_total"]
	hits, misses := c["nocbt_serve_cache_hits_total"], c["nocbt_serve_cache_misses_total"]
	r.layer["resultcache.hits"] = hits
	r.layer["resultcache.misses"] = misses
	if hits+misses > 0 {
		r.layer["resultcache.hit_ratio"] = hits / (hits + misses)
	}

	err = r.span("GET /debug/trace", "http", r.tid, func() error {
		var err error
		trace, err = s.get(ctx, "/debug/trace")
		return err
	})
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Dur  int64          `json:"dur"`
			TID  int64          `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &doc); err != nil {
		return fmt.Errorf("/debug/trace: %w", err)
	}
	var flushes []float64
	missTID := map[int64]bool{}
	reqDur := map[int64]int64{}
	for _, ev := range doc.TraceEvents {
		switch ev.Name {
		case "batch.flush":
			flushes = append(flushes, float64(ev.Dur)/1e3)
		case "cache.lookup":
			missTID[ev.TID] = ev.Args["result"] == "miss"
		case "http POST /v1/infer":
			reqDur[ev.TID] = ev.Dur
		}
	}
	var infers []float64
	for tid, d := range reqDur {
		if missTID[tid] {
			infers = append(infers, float64(d)/1e3)
		}
	}
	r.layer["serve.flush_ms_p50"] = median(flushes)
	r.layer["serve.infer_ms_p50"] = median(infers)
	return nil
}

// promCounters parses the unlabelled samples of a Prometheus text
// exposition.
func promCounters(b []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out
}
