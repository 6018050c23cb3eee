package hawkes

import (
	"encoding/binary"
	"math"
	"testing"

	"chassis/internal/kernel"
	"chassis/internal/timeline"
)

// FuzzContState holds the history-state contract on arbitrary event runs:
// appending at any split point is bit-equal to one AppendAll, HistoryState
// is nil exactly when AppendAll rejects the run or its last event lies past
// the horizon, and no input panics. Each event is 9 bytes: a user byte and
// the raw bits of its time, so NaN/Inf times, out-of-range users and
// out-of-order runs all arrive.
func FuzzContState(f *testing.F) {
	mk := func(evs ...any) []byte {
		var out []byte
		for k := 0; k < len(evs); k += 2 {
			out = append(out, byte(evs[k].(int)))
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(evs[k+1].(float64)))
		}
		return out
	}
	f.Add(mk(0, 1.0, 1, 2.5, 2, 2.5, 0, 4.0), 5.0, uint8(2))
	f.Add(mk(0, 1.0, 1, 5.0, 2, 2.0, 0, 9.0), 10.0, uint8(1)) // out of order
	f.Add(mk(0, 1.0, 1, 7.0), 3.0, uint8(1))                  // event after the horizon
	f.Add(mk(0, math.NaN(), 1, math.Inf(1)), 1.0, uint8(0))   // non-finite times
	f.Add(mk(9, 1.0), 2.0, uint8(0))                          // out-of-range user
	f.Add(mk(1, -3.0, 2, -1.0), -0.5, uint8(1))               // negative times
	f.Add([]byte(nil), 0.0, uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, horizon float64, split uint8) {
		const m = 3
		if len(data) > 9*64 {
			data = data[:9*64]
		}
		var acts []timeline.Activity
		for ; len(data) >= 9; data = data[9:] {
			acts = append(acts, timeline.Activity{
				ID:     timeline.ActivityID(len(acts)),
				User:   timeline.UserID(int(data[0]) % (m + 2)), // some out of range
				Time:   math.Float64frombits(binary.LittleEndian.Uint64(data[1:])),
				Parent: timeline.NoParent,
			})
		}
		p := &Process{
			M: m, Mu: []float64{0.2, 0.1, 0.3},
			Exc:     UniformExcitation{Value: 0.2},
			Kernels: SharedKernel{K: kernel.Exponential{Rate: 0.8, Scale: 1}},
			Link:    LinearLink{},
		}

		whole := p.NewContState()
		wholeErr := whole.AppendAll(p, acts)
		cut := int(split) % (len(acts) + 1)
		parts := p.NewContState()
		partsErr := parts.AppendAll(p, acts[:cut])
		if partsErr == nil {
			partsErr = parts.AppendAll(p, acts[cut:])
		}
		if (wholeErr == nil) != (partsErr == nil) {
			t.Fatalf("split at %d: AppendAll error %v, split appends error %v", cut, wholeErr, partsErr)
		}
		if wholeErr == nil {
			if parts.N != whole.N || math.Float64bits(parts.LastTime) != math.Float64bits(whole.LastTime) ||
				!sameFloats(parts.R, whole.R) || !sameFloats(parts.Last, whole.Last) {
				t.Fatalf("split at %d: state differs from one AppendAll", cut)
			}
		}

		seq := &timeline.Sequence{M: m, Horizon: horizon, Activities: acts}
		st := p.HistoryState(seq)
		wantNil := wholeErr != nil || !(whole.LastTime <= horizon)
		if (st == nil) != wantNil {
			t.Fatalf("HistoryState nil=%v, want nil=%v (AppendAll error %v, LastTime %g, horizon %g)",
				st == nil, wantNil, wholeErr, whole.LastTime, horizon)
		}
		if st != nil && (st.N != whole.N || !sameFloats(st.R, whole.R) || !sameFloats(st.Last, whole.Last)) {
			t.Fatal("HistoryState differs from AppendAll")
		}
	})
}
