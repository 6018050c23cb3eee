package predict

import (
	"fmt"
	"math"

	"chassis/internal/hawkes"
	"chassis/internal/timeline"
)

// ValidationError is the typed error every prediction entry point reports
// for invalid inputs — the requests a long-running server can receive from
// arbitrary clients (empty history, non-positive horizons, negative draw
// counts, histories shaped for a different model). It mirrors
// timeline.ValidationError's role at the fit front door: structured enough
// for an API layer to map onto a 400 response, never a panic.
type ValidationError struct {
	// Field names the offending option or input: "history", "lookahead",
	// "window", "draws", or "test".
	Field string
	// Msg is the human-readable account.
	Msg string
}

// Error implements error.
func (e *ValidationError) Error() string {
	return fmt.Sprintf("predict: invalid %s: %s", e.Field, e.Msg)
}

// vErr builds a ValidationError.
func vErr(field, format string, args ...any) *ValidationError {
	return &ValidationError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// validateHistory rejects the history shapes that would otherwise panic or
// silently mis-predict deep inside the simulator: a missing history, a
// dimension mismatch against the model, a non-finite or negative horizon,
// out-of-range users (which would index past the per-user parameter
// vectors), non-finite or negative event times, events out of
// chronological order (ties allowed), and events after the horizon (the
// continuation starts at the horizon, so they would be double-counted).
// These are the rules the serve layer applies to request histories. An
// *empty* history with a valid horizon stays legal — it is the cold-start
// forecast the rate-only tests exercise; the serve API layer additionally
// rejects requests that carry neither events nor a horizon.
func validateHistory(proc *hawkes.Process, history *timeline.Sequence) error {
	if history == nil {
		return vErr("history", "history is nil")
	}
	if history.M != proc.M {
		return vErr("history", "history has M=%d users, model expects M=%d", history.M, proc.M)
	}
	if math.IsNaN(history.Horizon) || math.IsInf(history.Horizon, 0) || history.Horizon < 0 {
		return vErr("history", "history horizon must be finite and non-negative, got %g", history.Horizon)
	}
	last := 0.0
	for i, a := range history.Activities {
		if a.User < 0 || int(a.User) >= proc.M {
			return vErr("history", "activity %d has user %d outside [0,%d)", i, a.User, proc.M)
		}
		if math.IsNaN(a.Time) || math.IsInf(a.Time, 0) || a.Time < 0 {
			return vErr("history", "activity %d time must be finite and non-negative, got %g", i, a.Time)
		}
		if a.Time < last {
			return vErr("history", "activity %d is out of order (t=%g after t=%g)", i, a.Time, last)
		}
		last = a.Time
	}
	if last > history.Horizon {
		return vErr("history", "horizon %g precedes the last event at t=%g", history.Horizon, last)
	}
	return nil
}
