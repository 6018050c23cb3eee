package core

import (
	"context"
	"errors"
	"fmt"

	"chassis/internal/obs"
)

// Option adjusts the observability hooks of one fit without touching the
// exported Config surface: the zero-value Config — and every struct literal
// in existing callers, golden files, and determinism suites — stays
// byte-compatible, while FitContext callers opt into callbacks and metrics.
type Option func(*Config)

// WithObserver attaches a lifecycle observer to the fit. The observer only
// reads the stats it is handed — an observed fit produces bit-identical
// parameters and forests to an unobserved one (the per-iteration training
// log-likelihood is additionally evaluated so OnIterEnd can report it, a
// pure computation). A nil observer is a no-op option.
func WithObserver(o obs.FitObserver) Option {
	return func(c *Config) { c.observer = obs.Observers(c.observer, o) }
}

// WithMetrics directs the fit's engine instrumentation (phase timers,
// compensator Euler-step counts, E-step scoring counters) into reg. A nil
// registry is a no-op option; without one, an attached observer still gets
// per-iteration Euler-step counts from a private registry.
func WithMetrics(reg *obs.Metrics) Option {
	return func(c *Config) {
		if reg != nil {
			c.metrics = reg
		}
	}
}

// CanceledError reports a fit aborted by context cancellation. It records
// where the EM loop was when the cancellation was honored; the fit returns
// no model alongside it — partially updated state is never handed out.
// errors.Is(err, context.Canceled) (or DeadlineExceeded) sees through it.
type CanceledError struct {
	// Phase names the lifecycle phase that observed the cancellation:
	// "warmstart", "bootstrap", "mstep", "kernels", "estep", "loglik", or
	// "readout".
	Phase string
	// Iteration is the 1-based EM iteration the cancellation hit; 0 when it
	// hit before (or after) the EM loop.
	Iteration int
	// Err is the underlying context error.
	Err error
}

// Error implements error.
func (e *CanceledError) Error() string {
	if e.Iteration > 0 {
		return fmt.Sprintf("core: fit canceled in iteration %d (%s): %v", e.Iteration, e.Phase, e.Err)
	}
	return fmt.Sprintf("core: fit canceled (%s): %v", e.Phase, e.Err)
}

// Unwrap exposes the context error to errors.Is/As.
func (e *CanceledError) Unwrap() error { return e.Err }

// isCancellation reports whether err originates from a done context.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// wrapCancel converts a phase error into *CanceledError when it is a
// context cancellation (possibly already wrapped by an inner phase), and
// passes every other error through untouched.
func wrapCancel(phase string, iter int, err error) error {
	if err == nil {
		return nil
	}
	if !isCancellation(err) {
		return err
	}
	var inner *CanceledError
	if errors.As(err, &inner) {
		err = inner.Err
	}
	return &CanceledError{Phase: phase, Iteration: iter, Err: err}
}
