package core

import (
	"context"
	"fmt"
	"math"

	"chassis/internal/branching"
	"chassis/internal/conformity"
	"chassis/internal/kernel"
	"chassis/internal/parallel"
	"chassis/internal/timeline"
)

// This file is the incremental EM mode the streaming-ingestion subsystem
// drives: per-event MAP parent attribution (the running E-step
// responsibility of a freshly ingested event) and a warm-started mini-batch
// M-step that refreshes the fitted parameters from accumulated events. Both
// are deterministic — no RNG draws, per-event scoring through the E-step's
// chunk body, and the M-step's per-dimension fan-out writes disjoint slots —
// so the incremental path is bit-identical at any worker count, and the full
// batch fit remains the oracle it is compared against.

// MAPParent returns the MAP parent of event k of seq under the fitted
// parameters (timeline.NoParent for an immigrant pick). It is the E-step
// chunk body run in MAP mode over the one-event range [k, k+1), so the
// scoring is the batch E-step's to the last float: candidates inside the
// kernel support weighted by the Papangelou drop F(g) − F(g − c_e) with the
// α clamp and Laplace smoothing, the immigrant option by F(μᵢ). Conformity
// features are read from the model's training-time state (m.Conf) — the
// same convention every serving-time evaluation (Process, HistoryState,
// prediction) uses — so attribution of a live cascade needs no conformity
// rebuild per event.
//
// Event k reads only its own past, and seq must already be chronological
// (the ingest store checks each event as it appends; validating here would
// cost O(k) per call). Read-only: it draws no random numbers and writes
// nothing, so scoring the same (seq, k) twice — or scoring events one at a
// time as they stream in versus AssignParents' one pass — yields identical
// assignments. Cost: O(M) to find the widest kernel support (the batch
// E-step's window, which exact identity needs), then O(window).
func (m *Model) MAPParent(seq *timeline.Sequence, k int) (timeline.ActivityID, error) {
	if seq.M != m.M {
		return timeline.NoParent, fmt.Errorf("core: sequence has %d dimensions, model has %d", seq.M, m.M)
	}
	if k < 0 || k >= seq.Len() {
		return timeline.NoParent, fmt.Errorf("core: event index %d outside [0,%d)", k, seq.Len())
	}
	if u := seq.Activities[k].User; u < 0 || int(u) >= m.M {
		return timeline.NoParent, fmt.Errorf("core: event %d has user %d outside [0,%d)", k, u, m.M)
	}
	var parent [1]int32
	m.eStepChunk(seq.Activities, 0, parallel.Range{Lo: k, Hi: k + 1}, nil, excitation{m: m, conf: m.Conf},
		m.maxSupport(), true, nil, parent[:], nil, nil)
	return timeline.ActivityID(parent[0]), nil
}

// AssignParents is the batch MAP pass: the E-step over seq in MAP mode under
// the training-time conformity state (m.Conf), returning the assignments of
// events [from, seq.Len()). Each event's scoring reads only its own past, so
// the pass equals MAPParent applied event by event as a cascade grows — the
// replay identity the ingest store's running responsibilities are tested
// against. Read-only, like MAPParent.
func (m *Model) AssignParents(seq *timeline.Sequence, from int) ([]timeline.ActivityID, error) {
	if err := m.checkSeq(seq); err != nil {
		return nil, err
	}
	if from > seq.Len() {
		return nil, fmt.Errorf("core: first event %d beyond the sequence's %d", from, seq.Len())
	}
	f, err := m.eStepPass(nil, inMemory(seq), m.Conf, true, nil, nil)
	if err != nil {
		return nil, err
	}
	return f.Parents()[max(from, 0):], nil
}

// RefitIncremental is the mini-batch M-step of the incremental EM mode: it
// returns a NEW model whose parameters are refreshed against seq — typically
// the training sequence merged with ingested live events — under the parent
// assignments accumulated by the running E-step (MAPParent at append time).
// The receiver is never mutated; serving code keeps the old model pinned
// until the new one installs atomically.
//
// parents supplies one assignment per event; nil reads the assignments
// embedded in seq (Activity.Parent — the form a Repair-merged stream
// carries). passes bounds the projected-gradient iterations per dimension
// (≤ 0 selects 5): a bounded warm-started refresh, not a full refit — the
// batch Fit stays the deterministic oracle. Kernels are kept fixed
// (streaming refreshes are parametric updates; the nonparametric kernel
// estimator needs full batch passes).
//
// Deterministic: given equal (receiver parameters, seq, parents, passes) the
// returned model is bit-identical at any Workers setting — the M-step fans
// dimensions over the pool but each dimension's optimization reads only
// frozen state.
func (m *Model) RefitIncremental(ctx context.Context, seq *timeline.Sequence, parents []timeline.ActivityID, passes int) (*Model, error) {
	if seq == nil || seq.M != m.M {
		return nil, fmt.Errorf("core: refit sequence must have M=%d dimensions", m.M)
	}
	if err := seq.Check(); err != nil {
		return nil, fmt.Errorf("core: refit sequence: %w", err)
	}
	if parents == nil {
		parents = seq.GroundTruthParents()
	}
	if len(parents) != seq.Len() {
		return nil, fmt.Errorf("core: %d parent assignments for %d events", len(parents), seq.Len())
	}
	forest, err := branching.FromParents(parents)
	if err != nil {
		return nil, fmt.Errorf("core: refit parents: %w", err)
	}
	if passes <= 0 {
		passes = 5
	}

	out := m.cloneForRefit()
	work := seq.StripParents()
	out.seq = work
	out.Horizon = seq.Horizon
	out.Forest = forest
	out.cfg.MStepIters = passes
	var conf *conformity.Computer
	if m.Variant.ConformityAware {
		conf, err = conformity.New(work, forest, out.cfg.Conformity)
		if err != nil {
			return nil, fmt.Errorf("core: refit conformity: %w", err)
		}
	}
	out.Conf = conf
	if err := out.mStep(ctx, inMemory(work), conf, nil); err != nil {
		return nil, err
	}
	for i := range out.Mu {
		if math.IsNaN(out.Mu[i]) || math.IsInf(out.Mu[i], 0) {
			return nil, fmt.Errorf("core: refit produced non-finite mu[%d]", i)
		}
	}
	out.Iterations = m.Iterations + 1
	return out, nil
}

// cloneForRefit deep-copies every field the M-step writes (and shares the
// frozen ones), so a refit can run while the original keeps serving.
func (m *Model) cloneForRefit() *Model {
	out := &Model{
		M: m.M, Variant: m.Variant, Horizon: m.Horizon,
		Mu:     append([]float64(nil), m.Mu...),
		GammaI: cloneDense(m.GammaI), GammaN: cloneDense(m.GammaN),
		Beta: cloneDense(m.Beta), Alpha: cloneDense(m.Alpha),
		Kernels:    append([]kernel.Kernel(nil), m.Kernels...),
		Iterations: m.Iterations,
		cfg:        m.cfg, link: m.link,
		estepCalls: m.estepCalls, stepScale: m.stepScale,
		muLo: m.muLo, muHi: m.muHi,
		sources: m.sources,
	}
	return out
}

// cloneDense deep-copies an M×M matrix (nil stays nil).
func cloneDense(a [][]float64) [][]float64 {
	if a == nil {
		return nil
	}
	out := make([][]float64, len(a))
	for i := range a {
		out[i] = append([]float64(nil), a[i]...)
	}
	return out
}
