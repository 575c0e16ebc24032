package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nocbt"
	"nocbt/internal/accel"
	"nocbt/internal/dnn"
	"nocbt/internal/tensor"
)

// tinyModel is a fast real model (conv + linear over the NoC) so the
// end-to-end tests exercise genuine engines without LeNet's runtime.
func tinyModel(seed int64) *dnn.Model {
	rng := rand.New(rand.NewSource(seed))
	return &dnn.Model{
		ModelName: "tiny",
		InShape:   []int{1, 8, 8},
		Layers: []dnn.Layer{
			dnn.NewConv2D(1, 3, 3, 1, 1, rng),
			dnn.NewReLU(),
			dnn.NewMaxPool2(),
			dnn.NewFlatten(),
			dnn.NewLinear(3*4*4, 5, rng),
		},
	}
}

func tinyInput(m *dnn.Model, inputSeed int64) *tensor.Tensor {
	x := tensor.New(m.InShape...)
	x.Uniform(0, 1, rand.New(rand.NewSource(inputSeed)))
	return x
}

func tinyModels() map[string]ModelProvider {
	return map[string]ModelProvider{
		"tiny": {
			Build: func(seed int64, trained bool) (*dnn.Model, error) { return tinyModel(seed), nil },
			Input: tinyInput,
		},
	}
}

// newTestServer spins up a Server over the tiny model with an httptest
// front end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Models == nil {
		cfg.Models = tinyModels()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestNewConfigValidation(t *testing.T) {
	if _, err := New(Config{Replicas: -1}); err == nil {
		t.Error("negative Replicas accepted")
	}
	if _, err := New(Config{MaxShards: -1}); err == nil {
		t.Error("negative MaxShards accepted (would 503 every inference)")
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var body struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" {
		t.Errorf("status = %q, want ok", body.Status)
	}
}

func TestExperimentsList(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var items []struct {
		Name        string `json:"name"`
		Description string `json:"description"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&items); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, it := range items {
		names[it.Name] = true
	}
	for _, want := range []string{"fig1", "fig12", "table1", "sweep"} {
		if !names[want] {
			t.Errorf("experiment %q missing from listing", want)
		}
	}
}

// TestInferConcurrentBitIdentity is the serving acceptance contract:
// concurrent micro-batched /v1/infer responses are bit-identical to
// serial Engine.Infer runs of the same requests on fresh engines.
func TestInferConcurrentBitIdentity(t *testing.T) {
	_, ts := newTestServer(t, Config{Replicas: 2, MaxBatch: 4, BatchWindow: 20 * time.Millisecond})

	const n = 8
	outputs := make([][]float32, n)
	batchSizes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, data := postJSON(t, ts.URL+"/v1/infer", InferRequest{
				Model: "tiny", Seed: 1, InputSeed: int64(i),
			})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, data)
				return
			}
			var r InferResponse
			if err := json.Unmarshal(data, &r); err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			outputs[i] = r.Output
			batchSizes[i] = r.BatchSize
		}(i)
	}
	wg.Wait()

	// Serial reference: a fresh engine per request, exactly the platform
	// the serving defaults resolve to.
	platform, err := PlatformSpec{}.Build()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		eng, err := accel.New(platform, tinyModel(1).CloneForInference())
		if err != nil {
			t.Fatal(err)
		}
		want, err := eng.Infer(context.Background(), tinyInput(tinyModel(1), int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if len(outputs[i]) != len(want.Data) {
			t.Fatalf("request %d: %d outputs, want %d", i, len(outputs[i]), len(want.Data))
		}
		for j := range want.Data {
			if outputs[i][j] != want.Data[j] {
				t.Errorf("request %d output[%d] = %v, serial Infer = %v", i, j, outputs[i][j], want.Data[j])
			}
		}
	}
	coalesced := false
	for _, bs := range batchSizes {
		if bs > 1 {
			coalesced = true
		}
	}
	if !coalesced {
		t.Log("note: no request was coalesced this run (timing-dependent)")
	}
}

func TestInferCacheHitIsByteIdentical(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxBatch: 1})
	req := InferRequest{Model: "tiny", Seed: 3, InputSeed: 9}

	resp1, body1 := postJSON(t, ts.URL+"/v1/infer", req)
	if resp1.StatusCode != http.StatusOK || resp1.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first request: status %d, X-Cache %q: %s", resp1.StatusCode, resp1.Header.Get("X-Cache"), body1)
	}
	resp2, body2 := postJSON(t, ts.URL+"/v1/infer", req)
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("second request not a cache hit: %s", body2)
	}
	resp3, body3 := postJSON(t, ts.URL+"/v1/infer", req)
	if resp3.Header.Get("X-Cache") != "hit" || !bytes.Equal(body2, body3) {
		t.Error("repeated hits are not byte-identical")
	}
	var r1, r2 InferResponse
	if err := json.Unmarshal(body1, &r1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body2, &r2); err != nil {
		t.Fatal(err)
	}
	if r1.Cached || !r2.Cached {
		t.Errorf("cached flags: first %v, second %v; want false, true", r1.Cached, r2.Cached)
	}
	if r1.BatchSize == 0 {
		t.Error("live response missing batch_size")
	}
	// The cached body must hold only parameter-deterministic fields:
	// latency and batch size depend on coalescing with other traffic.
	if r2.BatchSize != 0 || r2.LatencyCycles != 0 || bytes.Contains(body2, []byte("batch_size")) {
		t.Errorf("cached replay carries traffic-dependent fields: %s", body2)
	}
	if !bytes.Equal(mustJSON(t, r1.Output), mustJSON(t, r2.Output)) {
		t.Error("cached output differs from computed output")
	}
	if s.Metrics().InferRequests.Load() != 1 {
		t.Errorf("InferRequests = %d, want 1 (hits bypass the mesh)", s.Metrics().InferRequests.Load())
	}

	// no_cache forces a re-run and must reproduce the same tensor.
	respN, bodyN := postJSON(t, ts.URL+"/v1/infer", InferRequest{Model: "tiny", Seed: 3, InputSeed: 9, NoCache: true})
	if respN.Header.Get("X-Cache") != "miss" {
		t.Fatalf("no_cache answered from cache: %s", bodyN)
	}
	var rn InferResponse
	if err := json.Unmarshal(bodyN, &rn); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, rn.Output), mustJSON(t, r1.Output)) {
		t.Error("re-run output differs from first run (determinism broken)")
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestExperimentRunCachedByteIdentical(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := ExperimentRunRequest{Name: "fig1", Params: ExperimentParams{Quick: true, Step: 8}}

	resp1, body1 := postJSON(t, ts.URL+"/v1/experiments/run", req)
	if resp1.StatusCode != http.StatusOK || resp1.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first run: status %d, X-Cache %q: %.200s", resp1.StatusCode, resp1.Header.Get("X-Cache"), body1)
	}
	resp2, body2 := postJSON(t, ts.URL+"/v1/experiments/run", req)
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Fatal("repeated run not served from cache")
	}
	if !bytes.Equal(body1, body2) {
		t.Error("cache hit is not byte-identical to the computed response")
	}
	if got := s.Metrics().ExperimentRuns.Load(); got != 1 {
		t.Errorf("ExperimentRuns = %d, want 1", got)
	}
	if !json.Valid(body1) {
		t.Error("response is not valid JSON")
	}
	var res struct {
		Experiment string `json:"experiment"`
	}
	if err := json.Unmarshal(body1, &res); err != nil || res.Experiment != "fig1" {
		t.Errorf("rendered result experiment = %q, err %v", res.Experiment, err)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := ExperimentRunRequest{Name: "fig1", Params: ExperimentParams{Quick: true, Step: 16}}
	postJSON(t, ts.URL+"/v1/experiments/run", req)
	postJSON(t, ts.URL+"/v1/experiments/run", req)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{
		"nocbt_serve_cache_hits_total 1",
		"nocbt_serve_cache_misses_total 1",
		"nocbt_serve_experiment_runs_total 1",
		"# TYPE nocbt_serve_infer_requests_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}

func TestHTTPErrorPaths(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	cases := []struct {
		name   string
		path   string
		body   any
		status int
	}{
		{"unknown model", "/v1/infer", InferRequest{Model: "resnet"}, http.StatusNotFound},
		{"bad geometry", "/v1/infer", InferRequest{Model: "tiny", Platform: PlatformSpec{Geometry: "fp64"}}, http.StatusBadRequest},
		{"bad mesh", "/v1/infer", InferRequest{Model: "tiny", Platform: PlatformSpec{Width: 1, Height: 1}}, http.StatusBadRequest},
		{"unknown experiment", "/v1/experiments/run", ExperimentRunRequest{Name: "fig99"}, http.StatusNotFound},
		{"bad sweep platform", "/v1/experiments/run",
			ExperimentRunRequest{Name: "sweep", Params: ExperimentParams{Sweep: &nocbt.SweepAxes{Platforms: []string{"9x9"}}}},
			http.StatusBadRequest},
		{"bad sweep model", "/v1/experiments/run",
			ExperimentRunRequest{Name: "sweep", Params: ExperimentParams{Sweep: &nocbt.SweepAxes{Models: []string{"resnet"}}}},
			http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, data := postJSON(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, data)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q not a JSON error", tc.name, data)
		}
	}
	// Malformed JSON body.
	resp, err := http.Post(ts.URL+"/v1/infer", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}
	if got := s.Metrics().HTTPErrors.Load(); got != int64(len(cases))+1 {
		t.Errorf("HTTPErrors = %d, want %d", got, len(cases)+1)
	}
}

func TestPlatformSpecVariantsShardSeparately(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxBatch: 1})
	for _, ord := range []string{"o0", "o2"} {
		resp, data := postJSON(t, ts.URL+"/v1/infer", InferRequest{
			Model: "tiny", Seed: 1, InputSeed: 1, Platform: PlatformSpec{Ordering: ord},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ordering %s: %d %s", ord, resp.StatusCode, data)
		}
	}
	if got := s.pool.Shards(); got != 2 {
		t.Errorf("Shards = %d, want 2 (orderings shard separately)", got)
	}
}

// TestMaxShardsCap: the daemon refuses to materialize shards past the
// configured bound (503) while existing shards keep serving.
func TestMaxShardsCap(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 1, MaxShards: 1})
	resp, data := postJSON(t, ts.URL+"/v1/infer", InferRequest{Model: "tiny", Seed: 1, InputSeed: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first shard: %d %s", resp.StatusCode, data)
	}
	resp, data = postJSON(t, ts.URL+"/v1/infer", InferRequest{Model: "tiny", Seed: 2, InputSeed: 1})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second shard past the cap: %d %s, want 503", resp.StatusCode, data)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/infer", InferRequest{Model: "tiny", Seed: 1, InputSeed: 2})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("existing shard refused after cap hit: %d", resp.StatusCode)
	}
}

// TestPlatformSpecRegistryStrategies: the wire spec resolves any
// registered ordering strategy and link coding, not just the paper trio.
func TestPlatformSpecRegistryStrategies(t *testing.T) {
	p, err := PlatformSpec{Ordering: "hamming-nn", LinkCoding: "businvert"}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Ordering != nocbt.HammingNN || p.LinkCoding != "businvert" {
		t.Errorf("built platform ordering/coding = %d/%q", int(p.Ordering), p.LinkCoding)
	}
	// The pre-registry long aliases keep working.
	p, err = PlatformSpec{Ordering: "separated"}.Build()
	if err != nil || p.Ordering != nocbt.O2 {
		t.Errorf("alias separated = %d, %v", int(p.Ordering), err)
	}
}

// TestSweepParamsOrderingsAndCodings: the sweep wire params accept the new
// axes and reject unknown names.
func TestSweepParamsOrderingsAndCodings(t *testing.T) {
	spec, err := nocbt.SweepAxes{
		Orderings: []string{"o0", "popcount-asc"},
		Codings:   []string{"none", "gray"},
	}.Spec(0, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Orderings) != 2 || spec.Orderings[1] != nocbt.PopcountAsc {
		t.Errorf("orderings lowered wrong: %+v", spec.Orderings)
	}
	if len(spec.Codings) != 2 || spec.Codings[1] != "gray" {
		t.Errorf("codings lowered wrong: %+v", spec.Codings)
	}
	if _, err := (nocbt.SweepAxes{Orderings: []string{"o7"}}).Spec(0, false); err == nil {
		t.Error("unknown sweep ordering accepted")
	}
	if _, err := (nocbt.SweepAxes{Codings: []string{"huffman"}}).Spec(0, false); err == nil {
		t.Error("unknown sweep coding accepted")
	}
}

func TestPlatformSpecRejectsBadValues(t *testing.T) {
	bad := []PlatformSpec{
		{Ordering: "o3"},
		{LinkCoding: "huffman"},
		{LayerMode: "warp"},
		{Placement: "diagonal"},
		{Placement: "column", MCColumn: 99},
	}
	for _, spec := range bad {
		if _, err := spec.Build(); err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
	// The defaults themselves must build.
	if _, err := (PlatformSpec{}).Build(); err != nil {
		t.Errorf("default spec rejected: %v", err)
	}
}
