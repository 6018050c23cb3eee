package core

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"chassis/internal/timeline"
)

// TestReadoutsConcurrentReadOnly pins the post-fit read-only contract:
// InferForest and HeldOutLogLikelihood on one fitted model from several
// goroutines at once agree with a serial run and leave the model untouched —
// no write to the E-step call label or to the config. Under -race a write
// to either surfaces as a data race.
func TestReadoutsConcurrentReadOnly(t *testing.T) {
	seq := smallDataset(t, 17).Seq
	train, test, err := seq.Split(0.7)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Fit(train, quickCfg(VariantL))
	if err != nil {
		t.Fatal(err)
	}
	calls, cfg := m.estepCalls, m.cfg
	wantForest, err := m.InferForest(seq.StripParents())
	if err != nil {
		t.Fatal(err)
	}
	wantLL, err := m.HeldOutLogLikelihood(test)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 4
	var wg sync.WaitGroup
	errs := make(chan error, 2*goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			f, err := m.InferForest(seq.StripParents())
			if err == nil && !reflect.DeepEqual(f.Parents(), wantForest.Parents()) {
				err = errors.New("concurrent InferForest diverged from the serial run")
			}
			errs <- err
		}()
		go func() {
			defer wg.Done()
			ll, err := m.HeldOutLogLikelihood(test)
			if err == nil && ll != wantLL {
				err = errors.New("concurrent HeldOutLogLikelihood diverged from the serial run")
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if m.estepCalls != calls {
		t.Errorf("readouts moved the E-step call label: %d -> %d", calls, m.estepCalls)
	}
	if !reflect.DeepEqual(m.cfg, cfg) {
		t.Error("readouts changed the model's config")
	}
}

// TestReadoutValidation: InferForest and HeldOutLogLikelihood reject a
// structurally invalid sequence with a wrapped *timeline.ValidationError
// instead of returning a forest, a misleading likelihood error or a worker
// panic.
func TestReadoutValidation(t *testing.T) {
	m, seq := fitIncrementalFixture(t)
	_, test, err := seq.Split(0.7)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		field string
		edit  func(s *timeline.Sequence)
	}{
		{"out-of-order", "order", func(s *timeline.Sequence) {
			s.Activities[3].Time, s.Activities[4].Time = s.Activities[4].Time, s.Activities[3].Time
		}},
		{"user beyond M", "user", func(s *timeline.Sequence) {
			s.Activities[2].User = timeline.UserID(m.M + 3)
		}},
		{"non-finite time", "time", func(s *timeline.Sequence) {
			s.Activities[4].Time = math.NaN()
		}},
		{"time after horizon", "time", func(s *timeline.Sequence) {
			s.Activities[s.Len()-1].Time = s.Horizon + 1
		}},
		{"sparse IDs", "id", func(s *timeline.Sequence) {
			s.Activities[5].ID = 500
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			check := func(op string, err error) {
				t.Helper()
				var ve *timeline.ValidationError
				if !errors.As(err, &ve) {
					t.Fatalf("%s: got %v, want a *timeline.ValidationError", op, err)
				}
				if ve.Field != tc.field {
					t.Errorf("%s: field %q, want %q", op, ve.Field, tc.field)
				}
			}
			bad := seq.StripParents()
			tc.edit(bad)
			_, err := m.InferForest(bad)
			check("InferForest", err)
			badTest := test.Clone()
			tc.edit(badTest)
			_, err = m.HeldOutLogLikelihood(badTest)
			check("HeldOutLogLikelihood", err)
		})
	}
	if _, err := m.InferForest(nil); err == nil {
		t.Error("nil sequence accepted")
	}
	// Validate, not Check: an empty sequence is still a valid readout input.
	if _, err := m.InferForest(&timeline.Sequence{M: m.M, Horizon: 1}); err != nil {
		t.Errorf("empty sequence rejected: %v", err)
	}
}
