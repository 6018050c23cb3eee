package hawkes

import (
	"math"
	"testing"

	"chassis/internal/kernel"
	"chassis/internal/rng"
	"chassis/internal/timeline"
)

// contFixture builds an exponential-bank process and a history dense enough
// that the recursion state carries real mass at the horizon.
func contFixture(m int, rate float64) (*Process, *timeline.Sequence) {
	mu := make([]float64, m)
	for i := range mu {
		mu[i] = 0.2
	}
	p := &Process{
		M: m, Mu: mu,
		Exc:     UniformExcitation{Value: 0.3 / float64(m)},
		Kernels: SharedKernel{K: kernel.Exponential{Rate: rate, Scale: 1}},
		Link:    LinearLink{},
	}
	r := rng.New(41)
	seq := &timeline.Sequence{M: m, Horizon: 50}
	t := 0.0
	for k := 0; k < 400; k++ {
		t += r.Exp(10)
		if t >= seq.Horizon {
			break
		}
		seq.Activities = append(seq.Activities, timeline.Activity{
			ID: timeline.ActivityID(k), User: timeline.UserID(r.Intn(m)),
			Time: t, Parent: timeline.NoParent,
		})
	}
	return p, seq
}

// atHorizon returns the state's recursion values decayed to horizon h — the
// values Continue starts its primed loop from.
func atHorizon(st *ContState, h float64) []float64 {
	out := make([]float64, len(st.R))
	st.decayTo(out, h)
	return out
}

// TestHistoryStateMatchesDirectSum checks the horizon-decayed R against the
// O(n) definition computed term by term.
func TestHistoryStateMatchesDirectSum(t *testing.T) {
	p, seq := contFixture(4, 0.7)
	st := p.HistoryState(seq)
	if st == nil {
		t.Fatal("HistoryState returned nil for an exponential bank")
	}
	last := seq.Activities[seq.Len()-1].Time
	if st.N != seq.Len() || st.LastTime != last {
		t.Fatalf("state shape: N=%d LastTime=%g, want %d %g", st.N, st.LastTime, seq.Len(), last)
	}
	r := atHorizon(st, seq.Horizon)
	for i := 0; i < p.M; i++ {
		var want float64
		for _, a := range seq.Activities {
			want += p.Exc.Alpha(i, int(a.User), a.Time) * math.Exp(-0.7*(seq.Horizon-a.Time))
		}
		if math.Abs(r[i]-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Errorf("R[%d] at the horizon = %g, want %g", i, r[i], want)
		}
	}
}

// TestHistoryStatePrimedIntensityMatchesDirect verifies that the state
// reproduces the process's own intensity at times after the horizon: the
// quantity the primed Continue loop actually uses.
func TestHistoryStatePrimedIntensityMatchesDirect(t *testing.T) {
	p, seq := contFixture(5, 0.4)
	st := p.HistoryState(seq)
	if st == nil {
		t.Fatal("nil state")
	}
	r := atHorizon(st, seq.Horizon)
	for _, dt := range []float64{1e-9, 0.5, 3, 10} {
		at := seq.Horizon + dt
		for i := 0; i < p.M; i++ {
			primed := p.Link.Apply(p.Mu[i] + st.Scale[i]*st.Rate[i]*r[i]*math.Exp(-st.Rate[i]*dt))
			direct := p.Intensity(seq, i, at)
			if math.Abs(primed-direct) > 1e-9*math.Max(1, direct) {
				t.Errorf("dim %d at t=+%g: primed %g vs direct %g", i, dt, primed, direct)
			}
		}
	}
}

// TestHistoryStateNilCases pins the inputs that must refuse a state.
func TestHistoryStateNilCases(t *testing.T) {
	p, seq := contFixture(3, 1.0)

	noFast := *p
	noFast.NoFastPath = true
	if noFast.HistoryState(seq) != nil {
		t.Error("NoFastPath process produced a state")
	}

	pl, _ := kernel.NewPowerLaw(1, 2.5)
	nonExp := *p
	nonExp.Kernels = SharedKernel{K: pl}
	if nonExp.HistoryState(seq) != nil {
		t.Error("power-law bank produced a state")
	}

	past := seq.Clone()
	past.Horizon = past.Activities[past.Len()-1].Time - 1 // events beyond horizon
	if p.HistoryState(past) != nil {
		t.Error("history running past its horizon produced a state")
	}

	swapped := seq.Clone()
	k := swapped.Len() / 2
	swapped.Activities[k].Time, swapped.Activities[k+1].Time = swapped.Activities[k+1].Time, swapped.Activities[k].Time
	if p.HistoryState(swapped) != nil {
		t.Error("out-of-order history produced a state")
	}

	if p.HistoryState(nil) != nil {
		t.Error("nil history produced a state")
	}
}

// continuation continues seq ten time units past its horizon from the
// given state, on a fixed RNG stream.
func continuation(t *testing.T, p *Process, seq *timeline.Sequence, st *ContState) []timeline.Activity {
	t.Helper()
	ext, err := p.Continue(rng.New(5), seq, seq.Horizon+10, SimOptions{State: st})
	if err != nil {
		t.Fatal(err)
	}
	return ext.Activities
}

func sameActivities(a, b []timeline.Activity) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}

// TestUsableStateGuards pins the staleness and reparameterization guards:
// a state must not prime a grown history, a horizon before its last event,
// or a process whose kernels moved. A later horizon is fine — the state is
// horizon-free — and primes exactly what a state rebuilt there would.
func TestUsableStateGuards(t *testing.T) {
	p, seq := contFixture(3, 1.0)
	st := p.HistoryState(seq)
	if !p.UsableState(st) {
		t.Fatal("fresh state rejected")
	}

	grown := seq.Clone()
	grown.Activities = append(grown.Activities, timeline.Activity{
		ID: timeline.ActivityID(grown.Len()), User: 0, Time: grown.Horizon, Parent: timeline.NoParent,
	})
	if !sameActivities(continuation(t, p, grown, st), continuation(t, p, grown, nil)) {
		t.Error("state accepted for a longer history")
	}

	moved := seq.Clone()
	moved.Horizon += 5
	if !sameActivities(continuation(t, p, moved, st), continuation(t, p, moved, p.HistoryState(moved))) {
		t.Error("state at a later horizon diverged from one rebuilt there")
	}
	if sameActivities(continuation(t, p, moved, st), continuation(t, p, moved, nil)) {
		t.Error("state at a later horizon fell back to the generic loop")
	}

	early := seq.Clone()
	early.Horizon = st.LastTime - 1
	if !sameActivities(continuation(t, p, early, st), continuation(t, p, early, nil)) {
		t.Error("state accepted for a horizon before its last event")
	}

	repar := *p
	repar.Kernels = SharedKernel{K: kernel.Exponential{Rate: 2.0, Scale: 1}}
	if repar.UsableState(st) {
		t.Error("state accepted after kernel reparameterization")
	}
}

// TestContinuePrimedDistributionMatchesGeneric compares mean continued
// event counts of the primed loop against the generic Ogata loop over many
// draws: the two are different exact thinning schemes for the same process,
// so their distributions must agree even though individual draws differ.
func TestContinuePrimedDistributionMatchesGeneric(t *testing.T) {
	p, seq := contFixture(4, 0.5)
	st := p.HistoryState(seq)
	if st == nil {
		t.Fatal("nil state")
	}
	const draws = 400
	const horizon = 20.0
	mean := func(opts SimOptions) float64 {
		r := rng.New(99)
		var total float64
		for d := 0; d < draws; d++ {
			ext, err := p.Continue(r.Split(int64(d)), seq, seq.Horizon+horizon, opts)
			if err != nil {
				t.Fatal(err)
			}
			total += float64(ext.Len() - seq.Len())
		}
		return total / draws
	}
	generic := mean(SimOptions{})
	primed := mean(SimOptions{State: st})
	if generic <= 0 {
		t.Fatalf("generic path produced no events (mean %g)", generic)
	}
	rel := math.Abs(primed-generic) / generic
	if rel > 0.10 {
		t.Errorf("primed mean %.3f vs generic %.3f: rel diff %.3f > 10%%", primed, generic, rel)
	}
}

// TestContinuePrimedDeterministic pins bit-identical continuations for a
// fixed seed and state — the property the serve cache's bit-identity
// contract is built on.
func TestContinuePrimedDeterministic(t *testing.T) {
	p, seq := contFixture(4, 0.5)
	st := p.HistoryState(seq)
	run := func(s *ContState) []timeline.Activity {
		ext, err := p.Continue(rng.New(7), seq, seq.Horizon+15, SimOptions{State: s})
		if err != nil {
			t.Fatal(err)
		}
		return ext.Activities[seq.Len():]
	}
	a := run(st)
	b := run(st)
	c := run(p.HistoryState(seq)) // freshly rebuilt state, same values
	if len(a) != len(b) || len(a) != len(c) {
		t.Fatalf("draw lengths diverged: %d %d %d", len(a), len(b), len(c))
	}
	for k := range a {
		if a[k] != b[k] || a[k] != c[k] {
			t.Fatalf("event %d diverged: %+v %+v %+v", k, a[k], b[k], c[k])
		}
	}
}

// TestContinueMismatchedStateFallsBack proves a stale state degrades to the
// generic path instead of producing wrong forecasts: the result must equal
// the no-state run bit for bit (same RNG stream, same loop).
func TestContinueMismatchedStateFallsBack(t *testing.T) {
	p, seq := contFixture(3, 0.8)
	st := p.HistoryState(seq)
	grown := seq.Clone()
	grown.Activities = append(grown.Activities, timeline.Activity{
		ID: timeline.ActivityID(grown.Len()), User: 1, Time: grown.Horizon, Parent: timeline.NoParent,
	})
	grown.Horizon += 1

	want, err := p.Continue(rng.New(5), grown, grown.Horizon+10, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Continue(rng.New(5), grown, grown.Horizon+10, SimOptions{State: st})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("fallback diverged from generic: %d vs %d events", got.Len(), want.Len())
	}
	for k := range got.Activities {
		if got.Activities[k] != want.Activities[k] {
			t.Fatalf("event %d diverged", k)
		}
	}
}

// TestAccumBitIdenticalToHistoryState is the replay oracle: appending every
// event one at a time must reproduce HistoryState's one-shot sweep bit for
// bit, at every horizon — the property the streaming ingest subsystem
// (per-cascade states extended in place) rests on.
func TestAccumBitIdenticalToHistoryState(t *testing.T) {
	for _, m := range []int{1, 3, 7} {
		p, seq := contFixture(m, 0.6)
		want := p.HistoryState(seq)
		if want == nil {
			t.Fatal("nil HistoryState for exponential bank")
		}
		got := p.NewContState()
		if got == nil {
			t.Fatal("nil state for exponential bank")
		}
		for _, a := range seq.Activities {
			if err := got.Append(p, int(a.User), a.Time); err != nil {
				t.Fatalf("append: %v", err)
			}
		}
		if got.N != want.N || got.LastTime != want.LastTime {
			t.Fatalf("shape: N=%d LastTime=%g, want %d %g", got.N, got.LastTime, want.N, want.LastTime)
		}
		gotH, wantH := atHorizon(got, seq.Horizon), atHorizon(want, seq.Horizon)
		for i := 0; i < m; i++ {
			if got.R[i] != want.R[i] || got.Last[i] != want.Last[i] || gotH[i] != wantH[i] {
				t.Errorf("m=%d receiver %d: R %v/%v at horizon %v/%v (not bit-identical)",
					m, i, got.R[i], want.R[i], gotH[i], wantH[i])
			}
			if got.Rate[i] != want.Rate[i] || got.Scale[i] != want.Scale[i] {
				t.Errorf("m=%d kernel params diverge at %d", m, i)
			}
		}
	}
}

// TestAccumPrefixExtension pins the cache-extension path: a state built over
// a prefix, cloned, and extended by the suffix matches HistoryState — and
// the frozen prefix state is untouched by the extension.
func TestAccumPrefixExtension(t *testing.T) {
	p, seq := contFixture(4, 0.9)
	want := atHorizon(p.HistoryState(seq), seq.Horizon)
	for _, cut := range []int{0, 1, seq.Len() / 2, seq.Len() - 1, seq.Len()} {
		prefix := p.NewContState()
		if err := prefix.AppendAll(p, seq.Activities[:cut]); err != nil {
			t.Fatalf("prefix: %v", err)
		}
		frozen := prefix.Clone()
		ext := prefix.Clone()
		if err := ext.AppendAll(p, seq.Activities[cut:]); err != nil {
			t.Fatalf("suffix: %v", err)
		}
		got := atHorizon(ext, seq.Horizon)
		for i := 0; i < p.M; i++ {
			if got[i] != want[i] {
				t.Errorf("cut=%d: R[%d] = %v, want %v", cut, i, got[i], want[i])
			}
		}
		// The prefix state must be frozen: extension went through a clone.
		for i := 0; i < p.M; i++ {
			if prefix.R[i] != frozen.R[i] || prefix.Last[i] != frozen.Last[i] {
				t.Fatalf("cut=%d: extension mutated the cached prefix state", cut)
			}
		}
		if prefix.N != frozen.N || prefix.LastTime != frozen.LastTime {
			t.Fatalf("cut=%d: extension mutated prefix counters", cut)
		}
	}
}

// TestAccumRepeatedFinalize verifies that reading a state at a horizon is
// pure: decaying to several horizons (interleaved with appends) never
// perturbs the state, and a re-read at the same horizon is bit-identical.
func TestAccumRepeatedFinalize(t *testing.T) {
	p, seq := contFixture(3, 0.5)
	acc := p.NewContState()
	half := seq.Len() / 2
	if err := acc.AppendAll(p, seq.Activities[:half]); err != nil {
		t.Fatal(err)
	}
	a := atHorizon(acc, acc.LastTime+5)
	b := atHorizon(acc, acc.LastTime+5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("re-read at the same horizon is not bit-identical")
		}
	}
	if err := acc.AppendAll(p, seq.Activities[half:]); err != nil {
		t.Fatalf("append after a horizon read: %v", err)
	}
	want := atHorizon(p.HistoryState(seq), seq.Horizon)
	got := atHorizon(acc, seq.Horizon)
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("a mid-stream horizon read perturbed subsequent appends")
		}
	}
}

// TestAccumOrderingAndValidation exercises the append guards; a rejected
// append leaves the state as it was.
func TestAccumOrderingAndValidation(t *testing.T) {
	p, _ := contFixture(3, 0.5)
	acc := p.NewContState()
	if err := acc.Append(p, 0, 2.0); err != nil {
		t.Fatal(err)
	}
	before := acc.Clone()
	if err := acc.Append(p, 1, 1.0); err == nil {
		t.Error("out-of-order append accepted")
	}
	if err := acc.Append(p, 5, 3.0); err == nil {
		t.Error("out-of-range user accepted")
	}
	if err := acc.Append(p, 0, math.NaN()); err == nil {
		t.Error("NaN time accepted")
	}
	if err := acc.Append(p, 0, math.Inf(1)); err == nil {
		t.Error("+Inf time accepted")
	}
	if acc.N != before.N || acc.LastTime != before.LastTime || !sameFloats(acc.R, before.R) || !sameFloats(acc.Last, before.Last) {
		t.Error("a rejected append changed the state")
	}
	if err := acc.Append(p, 1, 2.0); err != nil {
		t.Errorf("tie rejected: %v", err)
	}
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestAccumEligibility mirrors HistoryState's: no state without the fast
// path or for non-exponential banks, and UsableState rejects a
// reparameterized process.
func TestAccumEligibility(t *testing.T) {
	p, _ := contFixture(3, 0.5)
	if !p.UsableState(p.NewContState()) {
		t.Error("fresh state not usable under its own process")
	}
	slow := *p
	slow.NoFastPath = true
	if slow.NewContState() != nil {
		t.Error("state created with fast path disabled")
	}
	nonExp := *p
	nonExp.Kernels = SharedKernel{K: kernel.Rayleigh{Sigma: 1}}
	if nonExp.NewContState() != nil {
		t.Error("state created for a non-exponential bank")
	}
	acc := p.NewContState()
	reparam := *p
	reparam.Kernels = SharedKernel{K: kernel.Exponential{Rate: 0.51, Scale: 1}}
	if reparam.UsableState(acc) {
		t.Error("state accepted under changed kernel parameters")
	}
}

// TestAccumFinalizePrimesContinue closes the loop with the simulation layer:
// a state appended event by event primes Continue exactly as HistoryState's
// does.
func TestAccumFinalizePrimesContinue(t *testing.T) {
	p, seq := contFixture(4, 0.7)
	acc := p.NewContState()
	if err := acc.AppendAll(p, seq.Activities); err != nil {
		t.Fatal(err)
	}
	if !sameActivities(continuation(t, p, seq, acc), continuation(t, p, seq, p.HistoryState(seq))) {
		t.Fatal("appended state primed a different continuation than HistoryState")
	}
}
