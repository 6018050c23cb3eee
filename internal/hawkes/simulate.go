package hawkes

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"chassis/internal/kernel"
	"chassis/internal/rng"
	"chassis/internal/scratch"
	"chassis/internal/timeline"
)

// ErrMaxEvents is reported when a simulation hits its event cap before the
// horizon — usually a sign of a supercritical (exploding) parameterization.
var ErrMaxEvents = errors.New("hawkes: simulation reached MaxEvents before the horizon")

// SimOptions configures Simulate.
type SimOptions struct {
	// Horizon is the end of the observation window [0, T].
	Horizon float64
	// MaxEvents caps the realization as an explosion guard (default 1e6).
	MaxEvents int
	// BoundMargin inflates the thinning upper bound to stay valid for
	// kernels that rise after an event (e.g. Rayleigh). 1.0 is exact for
	// non-increasing kernels; the default is 1.5.
	BoundMargin float64
	// State, honored by Continue only, supplies the history's precomputed
	// exponential continuation state (Process.HistoryState, or a ContState
	// appended event by event) so the primed O(new events · M) loop runs
	// instead of the generic history-rescanning Ogata loop. Continue only
	// reads it. It must have absorbed exactly the history's events under
	// the same process; Continue falls back to the generic path when the
	// state does not match. Ignored by Simulate.
	State *ContState
}

func (o *SimOptions) fill() error {
	if o.Horizon <= 0 {
		return fmt.Errorf("hawkes: simulation horizon must be positive, got %g", o.Horizon)
	}
	if o.MaxEvents <= 0 {
		o.MaxEvents = 1_000_000
	}
	if o.BoundMargin < 1 {
		o.BoundMargin = 1.5
	}
	return nil
}

// Simulate draws a realization of the process on [0, Horizon] by Ogata
// thinning and attributes a ground-truth parent to every accepted event by
// sampling from the branching decomposition: an event at time s in
// dimension i chooses parent e with probability ∝ αᵢⱼₑ(tₑ)·φ(s−tₑ), or no
// parent (immigrant) with probability ∝ μᵢ. The decomposition is exact for
// the linear link; for nonlinear links the same weights are the standard
// first-order attribution (the nonlinearity mixes contributions, so no
// exact finite decomposition exists).
//
// When every pair shares a single exponential kernel the simulator runs an
// O(M) incremental-decay fast path; otherwise it falls back to direct
// intensity evaluation.
func (p *Process) Simulate(r *rng.RNG, opts SimOptions) (*timeline.Sequence, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := opts.fill(); err != nil {
		return nil, err
	}
	if sk, ok := p.Kernels.(SharedKernel); ok {
		if exp, ok := sk.K.(kernel.Exponential); ok {
			return p.simulateExpFast(r, opts, exp)
		}
	}
	return p.simulateGeneric(r, opts)
}

// simulateExpFast exploits the Markov property of the exponential kernel:
// the endogenous excitation of every dimension decays by e^{−rate·Δt}
// between events and jumps by α·rate·scale at each event.
func (p *Process) simulateExpFast(r *rng.RNG, opts SimOptions, k kernel.Exponential) (*timeline.Sequence, error) {
	seq := &timeline.Sequence{M: p.M, Horizon: opts.Horizon}
	ex := make([]float64, p.M) // endogenous pre-link excitation per dim
	lambda := make([]float64, p.M)
	weights := make([]float64, 0, 64)

	type histEvent struct {
		idx  int
		user int
		time float64
	}
	var hist []histEvent
	jump := k.Rate * k.Scale // φ(0)

	t := 0.0
	for len(seq.Activities) < opts.MaxEvents {
		// Total-intensity bound at t⁺: exponential excitation decays, and
		// both links are monotone, so the current value is a valid sup.
		var bound float64
		for i := 0; i < p.M; i++ {
			bound += p.Link.Apply(p.Mu[i] + ex[i])
		}
		bound *= opts.BoundMargin
		if bound <= 0 {
			break
		}
		w := r.Exp(bound)
		s := t + w
		if s > opts.Horizon {
			break
		}
		// Decay excitation to s and evaluate intensities.
		decay := math.Exp(-k.Rate * (s - t))
		var total float64
		for i := 0; i < p.M; i++ {
			ex[i] *= decay
			lambda[i] = p.Link.Apply(p.Mu[i] + ex[i])
			total += lambda[i]
		}
		t = s
		if r.Float64()*bound > total {
			continue // thinned
		}
		dim := r.Categorical(lambda)
		if dim < 0 {
			continue
		}
		// Parent attribution over events still inside the kernel support,
		// by Papangelou intensity drops: weight_e = F(g) − F(g − c_e),
		// immigrant = F(μ). Reduces to {μ} ∪ {c_e} for the linear link.
		support := k.Support()
		start := 0
		for start < len(hist) && s-hist[start].time > support {
			start++
		}
		hist = hist[start:]
		g := p.Mu[dim] + ex[dim]
		fg := p.Link.Apply(g)
		weights = weights[:0]
		weights = append(weights, p.Link.Apply(p.Mu[dim]))
		for _, h := range hist {
			c := p.Exc.Alpha(dim, h.user, h.time) * k.Eval(s-h.time)
			weights = append(weights, fg-p.Link.Apply(g-c))
		}
		parent := timeline.NoParent
		if pick := r.Categorical(weights); pick > 0 {
			parent = timeline.ActivityID(hist[pick-1].idx)
		}
		id := len(seq.Activities)
		kind := timeline.Post
		if parent != timeline.NoParent {
			kind = timeline.Comment
		}
		seq.Activities = append(seq.Activities, timeline.Activity{
			ID: timeline.ActivityID(id), User: timeline.UserID(dim),
			Time: s, Kind: kind, Parent: parent,
		})
		// The new event boosts every dimension it excites.
		for i := 0; i < p.M; i++ {
			ex[i] += p.Exc.Alpha(i, dim, s) * jump
		}
		hist = append(hist, histEvent{idx: id, user: dim, time: s})
	}
	if len(seq.Activities) >= opts.MaxEvents {
		return seq, ErrMaxEvents
	}
	return seq, nil
}

// simulateGeneric is the kernel-agnostic Ogata loop: intensities are
// evaluated directly against the partial sequence. The BoundMargin guards
// kernels that rise after an event; if the bound is ever observed to be
// violated the candidate is still handled correctly because acceptance
// uses min(total/bound, 1), merely losing a little efficiency.
func (p *Process) simulateGeneric(r *rng.RNG, opts SimOptions) (*timeline.Sequence, error) {
	seq := &timeline.Sequence{M: p.M, Horizon: opts.Horizon}
	lambda := make([]float64, p.M)
	t := 0.0
	for len(seq.Activities) < opts.MaxEvents {
		var bound float64
		for i := 0; i < p.M; i++ {
			bound += p.Intensity(seq, i, t+1e-12)
		}
		bound *= opts.BoundMargin
		if bound <= 0 {
			break
		}
		s := t + r.Exp(bound)
		if s > opts.Horizon {
			break
		}
		var total float64
		for i := 0; i < p.M; i++ {
			lambda[i] = p.Intensity(seq, i, s)
			total += lambda[i]
		}
		t = s
		accept := total / bound
		if accept > 1 {
			accept = 1
		}
		if r.Float64() > accept {
			continue
		}
		dim := r.Categorical(lambda)
		if dim < 0 {
			continue
		}
		parent := p.sampleParent(r, seq, dim, s)
		id := len(seq.Activities)
		kind := timeline.Post
		if parent != timeline.NoParent {
			kind = timeline.Comment
		}
		seq.Activities = append(seq.Activities, timeline.Activity{
			ID: timeline.ActivityID(id), User: timeline.UserID(dim),
			Time: s, Kind: kind, Parent: parent,
		})
	}
	if len(seq.Activities) >= opts.MaxEvents {
		return seq, ErrMaxEvents
	}
	return seq, nil
}

// Continue extends an observed history by simulating the process forward
// from the history's horizon until `to`. The returned sequence holds the
// history followed by the new events; callers can slice at the history
// length to get the forecast. Used by prediction-by-forward-simulation.
//
// When opts.State carries the history's continuation state
// (Process.HistoryState) and it matches — UsableState holds, it absorbed
// exactly the history's events, and its last event is not after the
// history's horizon — the primed exponential loop runs — O(new events · M),
// independent of history length.
// Otherwise the generic Ogata loop evaluates intensities against the
// combined stream directly.
func (p *Process) Continue(r *rng.RNG, history *timeline.Sequence, to float64, opts SimOptions) (*timeline.Sequence, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if history == nil {
		return nil, errors.New("hawkes: nil history")
	}
	from := history.Horizon
	if to <= from {
		return nil, fmt.Errorf("hawkes: Continue target %g not after history horizon %g", to, from)
	}
	opts.Horizon = to
	if err := opts.fill(); err != nil {
		return nil, err
	}
	if st := opts.State; p.UsableState(st) && st.N == history.Len() && st.LastTime <= from {
		return p.continueExpFast(r, history, to, opts, st)
	}
	seq := history.Clone()
	seq.Horizon = to
	// Continue is the serve-time hot loop (every Monte-Carlo draw of every
	// prediction request lands here), so its per-call vectors come from the
	// scratch pool.
	lambda := scratch.Floats(p.M)
	defer scratch.PutFloats(lambda)
	t := from
	for len(seq.Activities) < opts.MaxEvents {
		var bound float64
		for i := 0; i < p.M; i++ {
			bound += p.Intensity(seq, i, t+1e-12)
		}
		bound *= opts.BoundMargin
		if bound <= 0 {
			break
		}
		s := t + r.Exp(bound)
		if s > to {
			break
		}
		var total float64
		for i := 0; i < p.M; i++ {
			lambda[i] = p.Intensity(seq, i, s)
			total += lambda[i]
		}
		t = s
		accept := total / bound
		if accept > 1 {
			accept = 1
		}
		if r.Float64() > accept {
			continue
		}
		dim := r.Categorical(lambda)
		if dim < 0 {
			continue
		}
		parent := p.sampleParent(r, seq, dim, s)
		id := len(seq.Activities)
		kind := timeline.Post
		if parent != timeline.NoParent {
			kind = timeline.Comment
		}
		seq.Activities = append(seq.Activities, timeline.Activity{
			ID: timeline.ActivityID(id), User: timeline.UserID(dim),
			Time: s, Kind: kind, Parent: parent,
		})
	}
	if len(seq.Activities) >= opts.MaxEvents {
		return seq, ErrMaxEvents
	}
	return seq, nil
}

// idScratch pools the candidate-id buffers of sampleParent — one Get/Put
// per accepted event of every simulated draw.
var idScratch scratch.Pool[timeline.ActivityID]

// sampleParent draws a ground-truth parent for a new event of dimension dim
// at time s by Papangelou intensity drops: weight_e = F(g) − F(g − c_e)
// with c_e = α·φ(s−tₑ), and immigrant weight F(μ_dim). For the linear link
// this is the exact cluster decomposition {μ_dim} ∪ {c_e}. Candidates
// outside every source kernel's support are skipped by a binary search
// rather than scanned (they carry zero weight either way), and the
// candidate buffers are pooled — this runs once per accepted event of every
// Monte-Carlo draw.
func (p *Process) sampleParent(r *rng.RNG, seq *timeline.Sequence, dim int, s float64) timeline.ActivityID {
	acts := seq.Activities
	lo := 0
	if bound := p.supportBound(dim); !math.IsInf(bound, 1) {
		from := s - bound
		lo = sort.Search(len(acts), func(k int) bool { return acts[k].Time >= from })
	}
	contribs := scratch.Floats(0)
	ids := idScratch.Get(0)
	g := p.Mu[dim]
	for k := lo; k < len(acts); k++ {
		a := &acts[k]
		if a.Time >= s {
			break
		}
		j := int(a.User)
		ker := p.Kernels.Kernel(dim, j)
		dt := s - a.Time
		if dt > ker.Support() {
			continue
		}
		c := p.Exc.Alpha(dim, j, a.Time) * ker.Eval(dt)
		g += c
		contribs = append(contribs, c)
		ids = append(ids, a.ID)
	}
	fg := p.Link.Apply(g)
	weights := scratch.Floats(0)
	weights = append(weights, p.Link.Apply(p.Mu[dim]))
	for _, c := range contribs {
		weights = append(weights, fg-p.Link.Apply(g-c))
	}
	parent := timeline.NoParent
	if pick := r.Categorical(weights); pick > 0 {
		parent = ids[pick-1]
	}
	scratch.PutFloats(weights)
	scratch.PutFloats(contribs)
	idScratch.Put(ids)
	return parent
}

// BranchingRatio estimates the mean number of direct offspring an event
// spawns: max over source dimensions j of Σᵢ αᵢⱼ·‖φᵢⱼ‖₁ evaluated at t = 0.
// Values ≥ 1 indicate a supercritical (exploding) linear process.
func (p *Process) BranchingRatio() float64 {
	var worst float64
	for j := 0; j < p.M; j++ {
		var col float64
		for i := 0; i < p.M; i++ {
			ker := p.Kernels.Kernel(i, j)
			col += p.Exc.Alpha(i, j, 0) * ker.Integral(math.Inf(1))
		}
		if col > worst {
			worst = col
		}
	}
	return worst
}
