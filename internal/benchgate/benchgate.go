// Package benchgate is the shared tooling behind the repo's five benchmark
// guards — estep (BENCH_estep.json), hotpath (BENCH_hotpath.json), serve
// (BENCH_serve.json), wal (BENCH_wal.json) and scale (BENCH_scale.json):
// loading a checked-in JSON baseline and holding a fresh measurement to it
// within a relative tolerance.
//
// Every guard used to carry its own copy of the read-unmarshal-compare
// dance; centralizing it keeps the gate semantics (and the error wording
// operators grep CI logs for) identical across guards. The measurement
// itself stays with each guard — what to time and how many reps is
// benchmark-specific; the comparison is not.
package benchgate

import (
	"encoding/json"
	"fmt"
	"os"
)

// LoadBaseline reads a JSON baseline file into out. A missing file is not
// an error: it returns (false, nil) so callers can implement record-and-pass
// (first guard run on a fresh checkout records the baseline instead of
// failing). A present-but-unreadable or corrupt file is an error — a guard
// must never silently pass because its baseline rotted.
func LoadBaseline(path string, out any) (bool, error) {
	blob, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("reading baseline %s: %w", path, err)
	}
	if err := json.Unmarshal(blob, out); err != nil {
		return false, fmt.Errorf("corrupt baseline %s: %w", path, err)
	}
	return true, nil
}

// Gate compares a fresh measurement against a recorded baseline and returns
// a non-nil error when measured exceeds baseline*(1+tolerance). name labels
// the guarded quantity in the error ("fast intensity engine", "serve cached
// p50"). tolerance is relative: 0.02 is the repo's standard 2% gate.
//
// A non-positive baseline is an error: it means the record step never
// produced a usable number, and gating against it would pass everything.
func Gate(name string, measuredMS, baselineMS, tolerance float64) error {
	return GateValue(name, "ms", measuredMS, baselineMS, tolerance)
}

// GateValue is Gate for guarded quantities that are not wall-clock
// milliseconds — memory ratios, byte counts. unit labels the number in the
// error message ("ratio", "bytes") so CI logs stay greppable; the gate
// semantics (upper bound at baseline*(1+tolerance), loud failure on a
// non-positive baseline) are identical to Gate's.
func GateValue(name, unit string, measured, baseline, tolerance float64) error {
	if baseline <= 0 {
		return fmt.Errorf("%s: baseline %.3f %s is not positive — re-record it", name, baseline, unit)
	}
	if tolerance < 0 {
		return fmt.Errorf("%s: negative tolerance %g", name, tolerance)
	}
	limit := baseline * (1 + tolerance)
	if measured > limit {
		return fmt.Errorf("%s regressed: %.3f %s > %.3f %s (baseline %.3f %s + %g%%)",
			name, measured, unit, limit, unit, baseline, unit, tolerance*100)
	}
	return nil
}
