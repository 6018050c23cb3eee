package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"chassis/internal/obs"
)

// traceObserver records every callback as "kind iter" in arrival order.
type traceObserver struct{ calls []string }

func (o *traceObserver) add(kind string, iter int) {
	o.calls = append(o.calls, fmt.Sprintf("%s %d", kind, iter))
}
func (o *traceObserver) OnIterStart(iter int)      { o.add("start", iter) }
func (o *traceObserver) OnMStep(s obs.MStepStats)  { o.add("mstep", s.Iter) }
func (o *traceObserver) OnEStep(s obs.EStepStats)  { o.add("estep", s.Iter) }
func (o *traceObserver) OnIterEnd(s obs.IterStats) { o.add("end", s.Iter) }

// TestShardedObserverAndCancellation pins the observer and cancellation
// contract of the out-of-core fit. An observed FitSharded receives the same
// callbacks as an observed FitContext on the equivalent sequence — same
// order, iteration numbers, M-step dims, E-step event counts and modes, and
// bit-equal entropies and gradient norms — except that training LLs are
// never evaluated out of core. A pre-cancelled context makes FitSharded
// return a *CanceledError and no model.
func TestShardedObserverAndCancellation(t *testing.T) {
	forceSmallChunks(t, 48)
	forceRefreshEvery(t, 2)
	d := smallDataset(t, 48)
	cfg := quickCfg(VariantL)
	cfg.FixedKernel = true
	cfg.EMIters = 5

	memTrace, memCol := &traceObserver{}, &obs.CollectObserver{}
	ref, err := FitContext(context.Background(), d.Seq, cfg, WithObserver(obs.Observers(memTrace, memCol)))
	if err != nil {
		t.Fatal(err)
	}
	rd := openCorpus(t, writeCorpusFile(t, d.Seq, 57))
	shCfg := cfg
	shCfg.Workers = 2
	shCfg.ShardEvents = 130
	shTrace, shCol := &traceObserver{}, &obs.CollectObserver{}
	m, err := FitSharded(context.Background(), rd, shCfg, WithObserver(obs.Observers(shTrace, shCol)))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.Fingerprint(), ref.Fingerprint(); got != want {
		t.Fatalf("observed sharded fit %s, observed in-memory fit %s", got, want)
	}

	if !reflect.DeepEqual(shTrace.calls, memTrace.calls) {
		t.Fatalf("callback order differs:\nsharded   %v\nin-memory %v", shTrace.calls, memTrace.calls)
	}
	if len(memCol.EForms) == 0 {
		t.Fatal("no E-step callbacks: the refresh schedule never ran")
	}
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for k, want := range memCol.MForms {
		got := shCol.MForms[k]
		if got.Iter != want.Iter || got.Dims != want.Dims ||
			got.GradNormValid != want.GradNormValid || !sameBits(got.GradNorm, want.GradNorm) {
			t.Errorf("M-step %d: sharded %+v, in-memory %+v", k, got, want)
		}
	}
	for k, want := range memCol.EForms {
		got := shCol.EForms[k]
		if got.Iter != want.Iter || got.Events != want.Events || got.MAP != want.MAP ||
			got.EntropyValid != want.EntropyValid || !sameBits(got.Entropy, want.Entropy) {
			t.Errorf("E-step %d: sharded %+v, in-memory %+v", k, got, want)
		}
	}
	for k, want := range memCol.Iters {
		got := shCol.Iters[k]
		if got.Iter != want.Iter || got.EntropyValid != want.EntropyValid || !sameBits(got.Entropy, want.Entropy) {
			t.Errorf("iteration %d: sharded %+v, in-memory %+v", k, got, want)
		}
		if !want.TrainLLValid {
			t.Errorf("iteration %d: observed in-memory fit did not evaluate the training LL", k)
		}
		if got.TrainLLValid {
			t.Errorf("iteration %d: sharded fit reports a training LL", k)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cm, err := FitSharded(ctx, rd, shCfg)
	if cm != nil {
		t.Fatal("cancelled sharded fit must not return a model")
	}
	var ce *CanceledError
	if !errors.As(err, &ce) || !errors.Is(err, context.Canceled) {
		t.Fatalf("got %T (%v), want *CanceledError wrapping context.Canceled", err, err)
	}
}
