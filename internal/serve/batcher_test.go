package serve

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"nocbt/internal/tensor"
)

// batchSizes returns the size of every batch the stub engine executed.
func (e *stubEngine) batchSizes() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	sizes := make([]int, len(e.batches))
	for i, b := range e.batches {
		sizes[i] = len(b)
	}
	return sizes
}

func newTestBatcher(t *testing.T, maxBatch int, window time.Duration, eng *stubEngine) *Batcher {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	p := NewPool(1, nil)
	shard := p.Shard("k", func() (Engine, error) { return eng, nil })
	return NewBatcher(ctx, shard, maxBatch, window, nil)
}

func in() *tensor.Tensor { return tensor.New(1) }

func TestBatcherFlushesOnBatchSize(t *testing.T) {
	eng := &stubEngine{reusable: true}
	// A generous window: flushing must come from the size trigger.
	b := newTestBatcher(t, 3, time.Hour, eng)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, size, err := b.Do(context.Background(), in()); err != nil || size != 3 {
				t.Errorf("Do = size %d, err %v; want a full batch of 3", size, err)
			}
		}()
	}
	wg.Wait()
	if sizes := eng.batchSizes(); len(sizes) != 1 || sizes[0] != 3 {
		t.Errorf("engine saw batches %v, want one batch of 3", sizes)
	}
}

func TestBatcherFlushesOnDeadline(t *testing.T) {
	eng := &stubEngine{reusable: true}
	b := newTestBatcher(t, 8, 5*time.Millisecond, eng)
	start := time.Now()
	_, _, size, err := b.Do(context.Background(), in())
	if err != nil || size != 1 {
		t.Fatalf("Do = size %d, err %v; want a lone flush", size, err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Errorf("deadline flush took %v", waited)
	}
}

func TestBatcherNoCoalescingWhenMaxBatchOne(t *testing.T) {
	eng := &stubEngine{reusable: true}
	b := newTestBatcher(t, 1, time.Hour, eng)
	for i := 0; i < 3; i++ {
		if _, _, size, err := b.Do(context.Background(), in()); err != nil || size != 1 {
			t.Fatalf("Do = size %d, err %v; want singles", size, err)
		}
	}
	if sizes := eng.batchSizes(); len(sizes) != 3 {
		t.Errorf("engine saw %v, want three size-1 batches", sizes)
	}
}

// TestBatcherZeroWindowDrainsQueued: window <= 0 must still drain
// already-queued requests into one batch (no waiting), not disable
// coalescing outright.
func TestBatcherZeroWindowDrainsQueued(t *testing.T) {
	eng := &stubEngine{reusable: true, inferDelay: 20 * time.Millisecond}
	b := newTestBatcher(t, 4, 0, eng)
	var wg sync.WaitGroup
	served := 0
	var mu sync.Mutex
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, size, err := b.Do(context.Background(), in())
			if err != nil || size < 1 || size > 4 {
				t.Errorf("Do = size %d, err %v", size, err)
				return
			}
			mu.Lock()
			served++
			mu.Unlock()
		}()
	}
	wg.Wait()
	if served != 6 {
		t.Errorf("served %d of 6 requests", served)
	}
	// While the single replica was busy with the first flush, later
	// arrivals queued up; the zero-window drain should have coalesced at
	// least two of them into one batch.
	sizes := eng.batchSizes()
	total, sawCoalesced := 0, false
	for _, s := range sizes {
		total += s
		if s > 1 {
			sawCoalesced = true
		}
	}
	if total != 6 {
		t.Errorf("batches %v serve %d requests, want 6", sizes, total)
	}
	if !sawCoalesced {
		t.Logf("note: no coalescing observed this run (timing-dependent): %v", sizes)
	}
}

func TestBatcherDeliversEngineError(t *testing.T) {
	boom := errors.New("mesh exploded")
	eng := &stubEngine{reusable: true, inferErr: boom}
	b := newTestBatcher(t, 2, time.Millisecond, eng)
	if _, _, _, err := b.Do(context.Background(), in()); !errors.Is(err, boom) {
		t.Errorf("Do = %v, want the engine error", err)
	}
}

// TestBatcherRejectsShortBatchStats is the regression for the silent
// zero-stat delivery: an engine whose LastBatchStats reports fewer
// PerInference entries than the batch has requests must fail the batch
// with a descriptive error — a requester must never see a fabricated
// latency of 0 for an inference the engine did not account for.
func TestBatcherRejectsShortBatchStats(t *testing.T) {
	eng := &stubEngine{reusable: true, statsShortBy: 1}
	b := newTestBatcher(t, 2, time.Hour, eng)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, stat, _, err := b.Do(context.Background(), in())
			if err == nil {
				t.Errorf("Do succeeded with stat %+v; want a stats-mismatch error", stat)
				return
			}
			if !strings.Contains(err.Error(), "per-inference stats") {
				t.Errorf("Do error %q does not describe the stats mismatch", err)
			}
		}()
	}
	wg.Wait()
}

func TestBatcherRequestContextCancel(t *testing.T) {
	eng := &stubEngine{reusable: true, inferDelay: 50 * time.Millisecond}
	b := newTestBatcher(t, 1, 0, eng)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, _, _, err := b.Do(ctx, in()); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Do under expiring ctx = %v, want deadline", err)
	}
}

func TestBatcherShutdownFailsPending(t *testing.T) {
	eng := &stubEngine{reusable: true}
	ctx, cancel := context.WithCancel(context.Background())
	p := NewPool(1, nil)
	shard := p.Shard("k", func() (Engine, error) { return eng, nil })
	b := NewBatcher(ctx, shard, 8, time.Hour, nil)
	done := make(chan error, 1)
	go func() {
		_, _, _, err := b.Do(context.Background(), in())
		done <- err
	}()
	// Let the job reach the collector, then shut the batcher down: the
	// pending request must fail instead of hanging forever.
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Error("pending request succeeded after shutdown")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending request stranded by shutdown")
	}
}

func TestBatcherMetrics(t *testing.T) {
	eng := &stubEngine{reusable: true}
	m := &Metrics{}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	p := NewPool(1, m)
	shard := p.Shard("k", func() (Engine, error) { return eng, nil })
	b := NewBatcher(ctx, shard, 2, time.Hour, m)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, _, err := b.Do(context.Background(), in()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := m.InferBatchedRequests.Load(); got != 4 {
		t.Errorf("InferBatchedRequests = %d, want 4", got)
	}
	if got := m.InferBatches.Load(); got < 2 || got > 4 {
		t.Errorf("InferBatches = %d, want between 2 and 4", got)
	}
}

// slowReleaseEngine widens the window between an engine's last use and
// its return to the pool: the pool calls Reusable inside release.
type slowReleaseEngine struct{ *stubEngine }

func (e slowReleaseEngine) Reusable() bool {
	time.Sleep(2 * time.Millisecond)
	return e.stubEngine.Reusable()
}

// TestBatcherRecordsFlushBeforeReply pins the flush ordering: by the time a
// requester holds its reply, the flush's latency and batch-size
// observations are recorded and its engine is back in the pool, so a
// metrics scrape that follows the reply sees the flush.
func TestBatcherRecordsFlushBeforeReply(t *testing.T) {
	eng := slowReleaseEngine{&stubEngine{reusable: true}}
	m := NewMetrics(0)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	p := NewPool(1, m)
	shard := p.Shard("k", func() (Engine, error) { return eng, nil })
	b := NewBatcher(ctx, shard, 1, 0, m)
	for i := int64(1); i <= 5; i++ {
		if _, _, _, err := b.Do(context.Background(), in()); err != nil {
			t.Fatal(err)
		}
		if got := m.BatchSize.Count(); got != i {
			t.Fatalf("reply %d: batch-size count %d", i, got)
		}
		if got := m.FlushLatency.Count(); got != i {
			t.Fatalf("reply %d: flush-latency count %d", i, got)
		}
		if got := m.QueueDepth.Load(); got != 0 {
			t.Fatalf("reply %d: queue depth %d, engine not yet released", i, got)
		}
	}
}
