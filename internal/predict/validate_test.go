package predict

import (
	"errors"
	"math"
	"testing"

	"chassis/internal/timeline"
)

// These are exactly the edge cases a long-running prediction server can
// receive from arbitrary clients: each must come back as a typed
// *ValidationError (or, for the documented zero-value defaults, succeed) —
// never a panic deep inside the simulator.

func history2(times ...float64) *timeline.Sequence {
	s := &timeline.Sequence{M: 2}
	for i, tm := range times {
		s.Activities = append(s.Activities, timeline.Activity{
			ID: timeline.ActivityID(i), User: timeline.UserID(i % 2),
			Time: tm, Kind: timeline.Post, Parent: timeline.NoParent,
		})
		s.Horizon = tm
	}
	return s
}

// badHistories are event runs no forecast can condition on: out of order,
// a non-finite or negative event time, and an event after the horizon.
func badHistories() map[string]*timeline.Sequence {
	past := history2(1, 2)
	past.Horizon = 1.5
	nan, negative := history2(1, 2), history2(1, 2)
	nan.Activities[1].Time = math.NaN()
	negative.Activities[0].Time = -1
	inf := history2(1, 2)
	inf.Activities[1].Time = math.Inf(1)
	inf.Horizon = 3
	return map[string]*timeline.Sequence{
		"out of order":        history2(1, 5, 2, 9),
		"NaN time":            nan,
		"infinite time":       inf,
		"negative time":       negative,
		"event after horizon": past,
	}
}

func asValidation(t *testing.T, err error, field string) {
	t.Helper()
	if err == nil {
		t.Fatalf("want *ValidationError on field %q, got nil", field)
	}
	var ve *ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("want *ValidationError, got %T: %v", err, err)
	}
	if ve.Field != field {
		t.Fatalf("ValidationError field = %q, want %q (%v)", ve.Field, field, ve)
	}
}

func TestNextValidation(t *testing.T) {
	proc := poisson2(t, 0.1, 0.1)
	h := history2(1, 2)

	_, err := Next(proc, nil, Options{Lookahead: 1})
	asValidation(t, err, "history")

	_, err = Next(proc, &timeline.Sequence{M: 3}, Options{Lookahead: 1})
	asValidation(t, err, "history")

	bad := history2(1)
	bad.Activities[0].User = 7 // out of range for M=2
	_, err = Next(proc, bad, Options{Lookahead: 1})
	asValidation(t, err, "history")

	neg := history2(1)
	neg.Horizon = math.NaN()
	_, err = Next(proc, neg, Options{Lookahead: 1})
	asValidation(t, err, "history")

	for name, bad := range badHistories() {
		_, err = Next(proc, bad, Options{Lookahead: 1})
		if err == nil {
			t.Fatalf("%s: accepted", name)
		}
		asValidation(t, err, "history")
	}

	for _, la := range []float64{0, -3, math.NaN()} {
		_, err = Next(proc, h, Options{Lookahead: la})
		asValidation(t, err, "lookahead")
	}

	_, err = Next(proc, h, Options{Lookahead: 1, Draws: -5})
	asValidation(t, err, "draws")
}

func TestCountsValidation(t *testing.T) {
	proc := poisson2(t, 0.1, 0.1)
	h := history2(1, 2)

	_, err := Counts(proc, nil, Options{Window: 1})
	asValidation(t, err, "history")

	for name, bad := range badHistories() {
		_, err = Counts(proc, bad, Options{Window: 1})
		if err == nil {
			t.Fatalf("%s: accepted", name)
		}
		asValidation(t, err, "history")
	}

	for _, w := range []float64{0, -1, math.NaN()} {
		_, err = Counts(proc, h, Options{Window: w})
		asValidation(t, err, "window")
	}

	_, err = Counts(proc, h, Options{Window: 1, Draws: -1})
	asValidation(t, err, "draws")
}

func TestZeroDrawsSelectsDefault(t *testing.T) {
	// Draws: 0 is the documented zero-value default (200 for Next, 100 for
	// Counts) — it must keep working, not error and not panic.
	proc := poisson2(t, 0.3, 0.3)
	n, err := Next(proc, history2(1), Options{Lookahead: 50, Draws: 0})
	if err != nil {
		t.Fatalf("Draws=0 Next: %v", err)
	}
	if n.Draws == 0 {
		t.Fatal("Draws=0 Next produced no futures at rate 0.6 over 50 time units")
	}
	c, err := Counts(proc, history2(1), Options{Window: 10, Draws: 0})
	if err != nil {
		t.Fatalf("Draws=0 Counts: %v", err)
	}
	if c.Total <= 0 {
		t.Fatalf("Draws=0 Counts total = %g, want > 0", c.Total)
	}
}

func TestEmptyHistoryColdStartStillWorks(t *testing.T) {
	// An empty history with a valid horizon is the cold-start forecast the
	// rate-only tests rely on; validation must not reject it.
	proc := poisson2(t, 0.5, 0.5)
	if _, err := Next(proc, emptyHistory(2, 10), Options{Lookahead: 5, Draws: 20}); err != nil {
		t.Fatalf("cold-start Next: %v", err)
	}
}

func TestNextUserAccuracyValidation(t *testing.T) {
	proc := poisson2(t, 0.1, 0.1)
	_, _, err := NextUserAccuracy(proc, history2(1), nil, Options{Draws: 4})
	asValidation(t, err, "test")
	_, _, err = NextUserAccuracy(proc, history2(1), &timeline.Sequence{M: 2}, Options{Draws: 4})
	asValidation(t, err, "test")
}
