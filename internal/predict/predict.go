// Package predict implements the user-behaviour applications the paper
// builds on top of a fitted CHASSIS model: next-activity prediction (who
// acts next, and when) and future activity-count forecasting, both by
// forward simulation of the fitted point process conditioned on the
// observed history.
//
// The entry points are Next, Counts, and NextUserAccuracy, configured by a
// single Options struct. Monte-Carlo draws fan out over the worker pool:
// each draw simulates from its own Split-derived RNG stream (keyed by the
// draw index, exactly the stream the historical serial loop used) and
// writes only its own result slot, and the reduction runs in draw order —
// so forecasts are bit-identical at every Workers setting.
package predict

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"chassis/internal/hawkes"
	"chassis/internal/obs"
	"chassis/internal/parallel"
	"chassis/internal/rng"
	"chassis/internal/scratch"
	"chassis/internal/timeline"
)

// Options bundles every knob of the prediction entry points; the zero value
// is usable wherever a field has a documented default.
type Options struct {
	// Lookahead is the simulation horizon beyond the history for Next
	// (must be positive there; ignored elsewhere).
	Lookahead float64
	// Window is the forecast window for Counts (must be positive there;
	// ignored elsewhere).
	Window float64
	// Draws is the number of Monte-Carlo futures (default 200 for Next,
	// 100 for Counts). Negative values are a *ValidationError.
	Draws int
	// Steps caps how many held-out events NextUserAccuracy walks through
	// (0 or too large: all of them).
	Steps int
	// Seed derives the simulation RNG streams (ignored when RNG is set).
	Seed int64
	// Workers caps the goroutines simulating draws; <= 0 uses GOMAXPROCS.
	// Results are bit-identical at every setting.
	Workers int
	// Ctx, when non-nil, cancels the Monte-Carlo loop cooperatively at
	// draw boundaries (and between NextUserAccuracy steps).
	Ctx context.Context
	// Observer, when non-nil, receives OnDraw(done, total) after every
	// completed draw — possibly from concurrent worker goroutines.
	Observer obs.PredictObserver
	// RNG overrides Seed with an existing stream: draw d simulates from
	// RNG.Split(d), so callers holding a live stream reproduce the same
	// outputs as Seed-based callers bit for bit.
	RNG *rng.RNG
	// HistState, when non-nil, supplies the history's precomputed
	// exponential continuation state (hawkes.Process.HistoryState, or a
	// hawkes.ContState appended event by event) so the Monte-Carlo draws
	// skip rebuilding it. When nil, Next and Counts compute the state
	// themselves once per call — so a supplied state changes no bytes of
	// any forecast, only the per-request setup cost (the property the serve
	// layer's history cache is pinned against). The draws only read the
	// state, at the history's horizon. It must have absorbed exactly the
	// history's events under the same process; a mismatched state is
	// ignored at the simulation layer.
	HistState *hawkes.ContState
}

// histState returns the continuation state the draws should simulate from:
// the caller-supplied one, or one built fresh — exactly once per prediction
// call, shared read-only by every draw.
func (o *Options) histState(proc *hawkes.Process, history *timeline.Sequence) *hawkes.ContState {
	if o.HistState != nil {
		return o.HistState
	}
	return proc.HistoryState(history)
}

func (o *Options) rng() *rng.RNG {
	if o.RNG != nil {
		return o.RNG
	}
	return rng.New(o.Seed)
}

func (o *Options) check() error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

// NextActivity is a next-event forecast.
type NextActivity struct {
	// User is the most probable next actor.
	User timeline.UserID
	// ExpectedTime is the mean arrival time of the next activity.
	ExpectedTime float64
	// Probability is the estimated probability that User acts first.
	Probability float64
	// Draws is how many simulated futures produced an event.
	Draws int
}

// Next forecasts the next activity after the history by drawing
// o.Draws futures from the process over o.Lookahead and aggregating the
// first event of each.
func Next(proc *hawkes.Process, history *timeline.Sequence, o Options) (NextActivity, error) {
	if err := validateHistory(proc, history); err != nil {
		return NextActivity{}, err
	}
	if o.Draws < 0 {
		return NextActivity{}, vErr("draws", "draws must be >= 0, got %d (0 selects the default)", o.Draws)
	}
	draws := o.Draws
	if draws == 0 {
		draws = 200
	}
	if math.IsNaN(o.Lookahead) || o.Lookahead <= 0 {
		return NextActivity{}, vErr("lookahead", "lookahead must be positive, got %g", o.Lookahead)
	}
	r := o.rng()
	type firstEvent struct {
		user timeline.UserID
		t    float64
		hit  bool
	}
	firsts := make([]firstEvent, draws)
	st := o.histState(proc, history)
	var doneDraws atomic.Int64
	err := parallel.DoContext(o.Ctx, o.Workers, draws, func(d int) error {
		ext, err := proc.Continue(r.Split(int64(d)), history, history.Horizon+o.Lookahead, hawkes.SimOptions{State: st})
		if err != nil && ext == nil {
			return fmt.Errorf("predict: simulating future %d: %w", d, err)
		}
		if ext.Len() > history.Len() {
			f := ext.Activities[history.Len()]
			firsts[d] = firstEvent{user: f.User, t: f.Time, hit: true}
		}
		if o.Observer != nil {
			o.Observer.OnDraw(int(doneDraws.Add(1)), draws)
		}
		return nil
	})
	if err != nil {
		return NextActivity{}, err
	}
	// Draw-order reduction: the same accumulation order as the historical
	// serial loop, so wrapper outputs match bit for bit.
	counts := make(map[timeline.UserID]int)
	var timeSum float64
	hits := 0
	for _, f := range firsts {
		if !f.hit {
			continue // quiet future
		}
		counts[f.user]++
		timeSum += f.t
		hits++
	}
	if hits == 0 {
		return NextActivity{Draws: 0}, nil
	}
	best := timeline.UserID(0)
	bestC := -1
	for u, c := range counts {
		if c > bestC || (c == bestC && u < best) {
			best, bestC = u, c
		}
	}
	return NextActivity{
		User:         best,
		ExpectedTime: timeSum / float64(hits),
		Probability:  float64(bestC) / float64(hits),
		Draws:        hits,
	}, nil
}

// CountForecast is a per-user expected activity count over a future window.
type CountForecast struct {
	// PerUser[i] is the expected number of activities of user i in
	// (history.Horizon, history.Horizon+window].
	PerUser []float64
	// Total is the expected total count.
	Total float64
}

// Counts estimates per-user activity counts over the next o.Window by
// Monte-Carlo forward simulation of o.Draws futures.
func Counts(proc *hawkes.Process, history *timeline.Sequence, o Options) (CountForecast, error) {
	if err := validateHistory(proc, history); err != nil {
		return CountForecast{}, err
	}
	if o.Draws < 0 {
		return CountForecast{}, vErr("draws", "draws must be >= 0, got %d (0 selects the default)", o.Draws)
	}
	draws := o.Draws
	if draws == 0 {
		draws = 100
	}
	if math.IsNaN(o.Window) || o.Window <= 0 {
		return CountForecast{}, vErr("window", "window must be positive, got %g", o.Window)
	}
	r := o.rng()
	perDraw := make([][]float64, draws)
	st := o.histState(proc, history)
	var doneDraws atomic.Int64
	err := parallel.DoContext(o.Ctx, o.Workers, draws, func(d int) error {
		ext, err := proc.Continue(r.Split(int64(d)), history, history.Horizon+o.Window, hawkes.SimOptions{State: st})
		if err != nil && ext == nil {
			return fmt.Errorf("predict: simulating future %d: %w", d, err)
		}
		// Pooled per-draw counters, released after the draw-order reduction.
		cnt := scratch.Floats(proc.M)
		for _, a := range ext.Activities[history.Len():] {
			cnt[a.User]++
		}
		perDraw[d] = cnt
		if o.Observer != nil {
			o.Observer.OnDraw(int(doneDraws.Add(1)), draws)
		}
		return nil
	})
	if err != nil {
		return CountForecast{}, err
	}
	per := make([]float64, proc.M)
	for _, cnt := range perDraw { // draw order (integer-valued sums anyway)
		for i, c := range cnt {
			per[i] += c
		}
		scratch.PutFloats(cnt)
	}
	out := CountForecast{PerUser: per}
	for i := range per {
		per[i] /= float64(draws)
		out.Total += per[i]
	}
	return out, nil
}

// NextUserAccuracy scores next-actor prediction against a held-out
// continuation: walking through the test events in order, it predicts the
// next actor from the history so far (Next, with o.Draws futures per step)
// and counts hits. Returns accuracy over o.Steps predictions (capped at the
// number of test events). The walk is inherently sequential — each step
// reveals the actual event before the next prediction — so only the draws
// within a step parallelize; o.Ctx is additionally polled between steps.
func NextUserAccuracy(proc *hawkes.Process, history, test *timeline.Sequence, o Options) (float64, int, error) {
	if test == nil || test.Len() == 0 {
		return 0, 0, vErr("test", "test sequence is empty")
	}
	steps := o.Steps
	if steps <= 0 || steps > test.Len() {
		steps = test.Len()
	}
	r := o.rng()
	cur := history.Clone()
	hits, total := 0, 0
	for s := 0; s < steps; s++ {
		if err := o.check(); err != nil {
			return 0, 0, err
		}
		actual := test.Activities[s]
		lookahead := (actual.Time - cur.Horizon) * 3
		if lookahead <= 0 {
			lookahead = 1
		}
		stepOpts := o
		stepOpts.Lookahead = lookahead
		stepOpts.RNG = r.Split(int64(s))
		stepOpts.HistState = nil // the walk grows the history every step
		pred, err := Next(proc, cur, stepOpts)
		if err != nil {
			return 0, 0, err
		}
		if pred.Draws > 0 {
			total++
			if pred.User == actual.User {
				hits++
			}
		}
		// Reveal the actual event and continue.
		a := actual
		a.ID = timeline.ActivityID(cur.Len())
		a.Parent = timeline.NoParent
		cur.Activities = append(cur.Activities, a)
		cur.Horizon = a.Time
	}
	if total == 0 {
		return 0, 0, nil
	}
	return float64(hits) / float64(total), total, nil
}
