package accel

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"nocbt/internal/flit"
	"nocbt/internal/tensor"
)

// TestInferContextCancelled proves a cancelled context aborts the
// simulation with ctx.Err() instead of running the inference to
// completion, on both the serial and batch paths.
func TestInferContextCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := microNet(rng)
	eng, err := New(Mesh4x4MC2(flit.Fixed8Geometry()), m)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Infer(ctx, testInput(m, 2)); !errors.Is(err, context.Canceled) {
		t.Errorf("Infer under cancelled context = %v, want context.Canceled", err)
	}
	if _, err := eng.InferBatch(ctx, []*tensor.Tensor{testInput(m, 2)}); !errors.Is(err, context.Canceled) {
		t.Errorf("InferBatch under cancelled context = %v, want context.Canceled", err)
	}
	if _, err := eng.InferRepeated(ctx, testInput(m, 2), 2); !errors.Is(err, context.Canceled) {
		t.Errorf("InferRepeated under cancelled context = %v, want context.Canceled", err)
	}
}

// TestInferContextDeadline proves an already-expired deadline surfaces as
// context.DeadlineExceeded.
func TestInferContextDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := microNet(rng)
	eng, err := New(Mesh4x4MC2(flit.Fixed8Geometry()), m)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), -1)
	defer cancel()
	if _, err := eng.Infer(ctx, testInput(m, 2)); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Infer past deadline = %v, want context.DeadlineExceeded", err)
	}
}

// countdownCtx is a context whose Err flips to Canceled after a fixed
// number of polls — a deterministic stand-in for a mid-simulation cancel,
// independent of wall-clock timing.
type countdownCtx struct {
	context.Context
	polls int
}

func (c *countdownCtx) Err() error {
	if c.polls--; c.polls < 0 {
		return context.Canceled
	}
	return nil
}

// TestInferCancelledMidRunPoisonsEngine pins the abort contract: a run
// cancelled after traffic reached the mesh leaves flits behind, so the
// engine must refuse later inferences with a descriptive error instead of
// tripping over the stale packets.
func TestInferCancelledMidRunPoisonsEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := microNet(rng)
	eng, err := New(Mesh4x4MC2(flit.Fixed8Geometry()), m)
	if err != nil {
		t.Fatal(err)
	}
	// Survive the run() entry poll, then cancel on the first cycle-loop
	// poll: the scheduler is 1024 cycles into the first conv layer with
	// task packets in flight.
	ctx := &countdownCtx{Context: context.Background(), polls: 1}
	if _, err := eng.Infer(ctx, testInput(m, 2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel returned %v, want context.Canceled", err)
	}
	_, err = eng.Infer(context.Background(), testInput(m, 2))
	if err == nil || !strings.Contains(err.Error(), "unusable after an aborted run") {
		t.Fatalf("poisoned engine accepted another inference: %v", err)
	}
	if _, err := eng.InferBatch(context.Background(), []*tensor.Tensor{testInput(m, 2)}); err == nil ||
		!strings.Contains(err.Error(), "unusable") {
		t.Errorf("poisoned engine accepted a batch: %v", err)
	}
}

// TestInferPreRunCancelDoesNotPoison: a context cancelled before any
// dispatch leaves the engine untouched and reusable.
func TestInferPreRunCancelDoesNotPoison(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := microNet(rng)
	eng, err := New(Mesh4x4MC2(flit.Fixed8Geometry()), m)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Infer(ctx, testInput(m, 2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Infer = %v", err)
	}
	if _, err := eng.Infer(context.Background(), testInput(m, 2)); err != nil {
		t.Errorf("engine unusable after a pre-run cancel: %v", err)
	}
}

// TestInferNilContextDefaultsToBackground keeps nil-context callers
// working instead of panicking.
func TestInferNilContextDefaultsToBackground(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := microNet(rng)
	eng, err := New(Mesh4x4MC2(flit.Fixed8Geometry()), m)
	if err != nil {
		t.Fatal(err)
	}
	//nolint:staticcheck // passing nil deliberately to pin the fallback
	if _, err := eng.Infer(nil, testInput(m, 2)); err != nil {
		t.Errorf("Infer with nil context = %v, want success", err)
	}
}
