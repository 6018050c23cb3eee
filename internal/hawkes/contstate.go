package hawkes

import (
	"fmt"
	"math"

	"chassis/internal/rng"
	"chassis/internal/scratch"
	"chassis/internal/timeline"
)

// This file holds the exponential-recursion state of an observed history,
// so prediction-by-forward-simulation can continue from it without
// replaying the history, and streaming ingestion can extend it one event
// at a time. fastpath.go's sweeps rebuild the per-receiver state from
// scratch on every pass; ContState collapses the whole history into M
// scalars once, after which continuing the process costs O(new events · M)
// regardless of how long the history was.
//
// The state is horizon-free. R is held un-decayed, at each receiver's last
// touch, and the decay to a horizon happens only inside Continue, on a
// scratch copy. The reason is bit-identity: float decay does not compose —
// e^{−r(T−t)}·e^{−r(s−T)} ≠ e^{−r(s−t)} in IEEE 754 — so a state decayed to
// a horizon could not be extended exactly. Keeping the loop-internal values
// instead makes Append perform literally the same operations, in the same
// order, whether the history arrives in one sweep or event by event, and
// lets one state prime a continuation at any horizon ≥ LastTime.

// ContState is the appendable exponential-kernel continuation state of a
// history: for each receiving dimension i,
//
//	R[i] = Σ_{t_l} αᵢ(t_l) · e^{−βᵢ·(Last[i] − t_l)}
//
// so the pre-link aggregate at any later time t is
// μᵢ + scaleᵢ·βᵢ·R[i]·e^{−βᵢ·(t−Last[i])} plus the contributions of events
// simulated since. Valid only for the process (and parameter values) it
// was built from; Continue re-derives the bank and refuses a state whose
// shape or kernel parameters no longer match.
//
// Continue and predict only read a state, so one state can back any number
// of concurrent draws and be shared by a cache. Append mutates it in place:
// code that keeps appending to a state others may read appends to a Clone.
type ContState struct {
	// N counts the events absorbed so far (staleness guard: a state built
	// from a prefix must not prime a longer history).
	N int
	// LastTime is the newest absorbed event's time (append ordering guard;
	// a state cannot prime a horizon before it).
	LastTime float64
	// R is the per-receiver recursion value in excitation units (pre
	// scale·rate, matching fastpath.go's convention), decayed only to
	// Last[i].
	R []float64
	// Last is the per-receiver last touch time.
	Last []float64
	// Rate and Scale are the per-receiver exponential-kernel parameters the
	// state was built under; UsableState cross-checks them against the live
	// bank so a state cannot silently prime a reparameterized process.
	Rate, Scale []float64
}

// NewContState returns the empty state bound to the process's current
// exponential bank, or nil when the process cannot use one: fast path
// disabled, or a non-exponential kernel bank.
func (p *Process) NewContState() *ContState {
	if p.NoFastPath {
		return nil
	}
	eb, ok := exponentialBank(p.Kernels, p.M)
	if !ok {
		return nil
	}
	defer eb.release()
	return &ContState{
		R:     make([]float64, p.M),
		Last:  make([]float64, p.M),
		Rate:  append([]float64(nil), eb.rate...),
		Scale: append([]float64(nil), eb.scale...),
	}
}

// HistoryState builds the continuation state of history, or nil when the
// process cannot use one (see NewContState) or the history is not a valid
// chronological run ending by its horizon: events out of order, a
// non-finite time, an out-of-range user, or an event past the horizon
// (Continue would double-count it). Building is one O(n·M) lazy-decay
// sweep — the same cost as a single naive intensity evaluation.
func (p *Process) HistoryState(history *timeline.Sequence) *ContState {
	if history == nil {
		return nil
	}
	st := p.NewContState()
	if st == nil || st.AppendAll(p, history.Activities) != nil || !(st.LastTime <= history.Horizon) {
		return nil
	}
	return st
}

// UsableState reports whether st can keep absorbing events and prime
// continuations under the process's current parameters: same shape and
// the same per-receiver exponential kernels it was built under. O(M). A
// model hot-reload that changes kernel parameters invalidates states;
// callers rebuild from the event tail.
func (p *Process) UsableState(st *ContState) bool {
	if st == nil || p.NoFastPath {
		return false
	}
	if len(st.R) != p.M || len(st.Last) != p.M || len(st.Rate) != p.M || len(st.Scale) != p.M {
		return false
	}
	eb, ok := exponentialBank(p.Kernels, p.M)
	if !ok {
		return false
	}
	defer eb.release()
	for i := 0; i < p.M; i++ {
		if st.Rate[i] != eb.rate[i] || st.Scale[i] != eb.scale[i] {
			return false
		}
	}
	return true
}

// Append absorbs one event: lazy-decay each touched receiver from its own
// last touch time, then add the excitation. This is the only copy of the
// history-state sweep, which is what makes event-by-event ingestion
// bit-identical to a one-shot HistoryState. Events must arrive in
// chronological order (ties allowed).
func (st *ContState) Append(p *Process, user int, t float64) error {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return fmt.Errorf("hawkes: state append: non-finite time %v", t)
	}
	if st.N > 0 && t < st.LastTime {
		return fmt.Errorf("hawkes: state append: t=%g precedes last absorbed event at t=%g", t, st.LastTime)
	}
	if user < 0 || user >= len(st.R) {
		return fmt.Errorf("hawkes: state append: user %d outside [0,%d)", user, len(st.R))
	}
	for i := range st.R {
		alpha := p.Exc.Alpha(i, user, t)
		if alpha == 0 {
			continue
		}
		if st.R[i] != 0 && st.Last[i] != t {
			st.R[i] *= math.Exp(-st.Rate[i] * (t - st.Last[i]))
		}
		st.Last[i] = t
		st.R[i] += alpha
	}
	st.N++
	st.LastTime = t
	return nil
}

// AppendAll absorbs a chronological run of events (Append in a loop; the
// first error stops the run with the state reflecting the events already
// absorbed).
func (st *ContState) AppendAll(p *Process, acts []timeline.Activity) error {
	for k := range acts {
		if err := st.Append(p, int(acts[k].User), acts[k].Time); err != nil {
			return fmt.Errorf("event %d: %w", k, err)
		}
	}
	return nil
}

// Clone returns an independent deep copy (nil for nil): a shared state stays
// frozen while the copy absorbs more events.
func (st *ContState) Clone() *ContState {
	if st == nil {
		return nil
	}
	return &ContState{
		N:        st.N,
		LastTime: st.LastTime,
		R:        append([]float64(nil), st.R...),
		Last:     append([]float64(nil), st.Last...),
		Rate:     append([]float64(nil), st.Rate...),
		Scale:    append([]float64(nil), st.Scale...),
	}
}

// decayTo writes R decayed to t ≥ LastTime into dst, one receiver at a time
// from its own last touch — the step that closes the history sweep before
// a continuation starts at t.
func (st *ContState) decayTo(dst []float64, t float64) {
	for i, r := range st.R {
		if r != 0 && st.Last[i] != t {
			r *= math.Exp(-st.Rate[i] * (t - st.Last[i]))
		}
		dst[i] = r
	}
}

// continueExpFast is Continue's primed path: the history's excitation
// arrives pre-collapsed in st, so the Ogata loop touches only the state
// vector and the events it accepts — O(new events · M) instead of
// re-scanning the history at every thinning candidate. Parent attribution
// still runs sampleParent over the combined sequence (once per accepted
// event), keeping its semantics identical to the generic path.
//
// The thinning bound per dimension is Link(μᵢ + max(sr·Rᵢ, 0)): between
// events the pre-link input moves monotonically from its current value
// toward μᵢ as the exponential terms decay, so the larger endpoint bounds
// the intensity for any monotone link even when inhibition has driven the
// aggregate below baseline.
func (p *Process) continueExpFast(r *rng.RNG, history *timeline.Sequence, to float64, opts SimOptions, st *ContState) (*timeline.Sequence, error) {
	seq := history.Clone()
	seq.Horizon = to
	m := p.M
	rv := scratch.Floats(m) // working copy: st is shared and only read
	lambda := scratch.Floats(m)
	defer scratch.PutFloats(rv)
	defer scratch.PutFloats(lambda)
	t := history.Horizon
	st.decayTo(rv, t)

	for len(seq.Activities) < opts.MaxEvents {
		var bound float64
		for i := 0; i < m; i++ {
			x := st.Scale[i] * st.Rate[i] * rv[i]
			if x < 0 {
				x = 0
			}
			bound += p.Link.Apply(p.Mu[i] + x)
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
		for i := 0; i < m; i++ {
			if rv[i] != 0 {
				rv[i] *= math.Exp(-st.Rate[i] * (s - t))
			}
			lambda[i] = p.Link.Apply(p.Mu[i] + st.Scale[i]*st.Rate[i]*rv[i])
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
		for i := 0; i < m; i++ {
			rv[i] += p.Exc.Alpha(i, dim, s)
		}
	}
	if len(seq.Activities) >= opts.MaxEvents {
		return seq, ErrMaxEvents
	}
	return seq, nil
}
