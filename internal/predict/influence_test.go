package predict

import (
	"math"
	"testing"

	"chassis/internal/hawkes"
	"chassis/internal/kernel"
	"chassis/internal/rng"
	"chassis/internal/timeline"
)

// influenceSeq builds a deterministic dense sequence: Poisson-ish arrivals,
// users cycling through a seeded stream.
func influenceSeq(m int, horizon float64, seed int64) *timeline.Sequence {
	r := rng.New(seed)
	seq := &timeline.Sequence{M: m, Horizon: horizon}
	t := 0.0
	for {
		t += r.Exp(8)
		if t >= horizon {
			return seq
		}
		seq.Activities = append(seq.Activities, timeline.Activity{
			ID: timeline.ActivityID(seq.Len()), User: timeline.UserID(r.Intn(m)),
			Time: t, Parent: timeline.NoParent,
		})
	}
}

// naiveInfluence is the O(n²) reference: for every event, every strictly
// earlier event inside the pair's kernel support is a parent candidate with
// Papangelou weight F(g) − F(g − c); the immigrant weight is F(μ). No
// support-bound early break, no chunking — independently written from the
// documented semantics.
func naiveInfluence(p *hawkes.Process, seq *timeline.Sequence) InfluenceScores {
	out := InfluenceScores{PerUser: make([]float64, p.M), Events: seq.Len()}
	for k := range seq.Activities {
		ak := &seq.Activities[k]
		i := int(ak.User)
		g := p.Mu[i]
		var cs []float64
		var us []timeline.UserID
		for w := range seq.Activities {
			aw := &seq.Activities[w]
			if aw.Time >= ak.Time {
				continue
			}
			dt := ak.Time - aw.Time
			ker := p.Kernels.Kernel(i, int(aw.User))
			if dt > ker.Support() {
				continue
			}
			v := ker.Eval(dt)
			if v == 0 {
				continue
			}
			c := p.Exc.Alpha(i, int(aw.User), aw.Time) * v
			g += c
			cs = append(cs, c)
			us = append(us, aw.User)
		}
		fg := p.Link.Apply(g)
		immW := p.Link.Apply(p.Mu[i])
		total := 0.0
		if immW > 0 {
			total = immW
		}
		ws := make([]float64, len(cs))
		for e, c := range cs {
			ws[e] = fg - p.Link.Apply(g-c)
			if ws[e] > 0 {
				total += ws[e]
			}
		}
		if total <= 0 || math.IsNaN(total) {
			out.Immigrants++
			continue
		}
		if immW > 0 {
			out.Immigrants += immW / total
		}
		for e, w := range ws {
			if w > 0 {
				out.PerUser[us[e]] += w / total
			}
		}
	}
	return out
}

func influenceProcs(t *testing.T, m int) map[string]*hawkes.Process {
	t.Helper()
	mu := make([]float64, m)
	for i := range mu {
		mu[i] = 0.15
	}
	pl, err := kernel.NewPowerLaw(0.5, 2.2)
	if err != nil {
		t.Fatal(err)
	}
	// A mixed-sign excitation matrix exercises the w ≤ 0 filtering under a
	// nonlinear link.
	neg := make([][]float64, m)
	for i := range neg {
		neg[i] = make([]float64, m)
		for j := range neg[i] {
			neg[i][j] = 0.4 / float64(m)
			if (i+j)%3 == 0 {
				neg[i][j] = -0.2 / float64(m)
			}
		}
	}
	excNeg, err := hawkes.NewConstExcitation(neg)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*hawkes.Process{
		"exp-linear": {
			M: m, Mu: mu, Exc: hawkes.UniformExcitation{Value: 0.5 / float64(m)},
			Kernels: hawkes.SharedKernel{K: kernel.Exponential{Rate: 0.8, Scale: 1}},
			Link:    hawkes.LinearLink{},
		},
		"powerlaw-linear": {
			M: m, Mu: mu, Exc: hawkes.UniformExcitation{Value: 0.5 / float64(m)},
			Kernels: hawkes.SharedKernel{K: pl},
			Link:    hawkes.LinearLink{},
		},
		"exp-softplus-inhibition": {
			M: m, Mu: mu, Exc: excNeg,
			Kernels: hawkes.SharedKernel{K: kernel.Exponential{Rate: 1.2, Scale: 1}},
			Link:    hawkes.SoftplusLink{},
		},
	}
}

// TestInfluenceMatchesNaive pins the chunked scan against the O(n²)
// reference across kernel banks and links, including across chunk seams.
func TestInfluenceMatchesNaive(t *testing.T) {
	const m = 6
	seq := influenceSeq(m, 40, 17)
	if seq.Len() < 200 {
		t.Fatalf("fixture too sparse: %d events", seq.Len())
	}
	old := influenceChunkSize
	influenceChunkSize = 37 // force many chunks and ragged seams
	defer func() { influenceChunkSize = old }()
	for name, p := range influenceProcs(t, m) {
		t.Run(name, func(t *testing.T) {
			got, err := Influence(p, seq, Options{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			want := naiveInfluence(p, seq)
			if math.Abs(got.Immigrants-want.Immigrants) > 1e-9*float64(seq.Len()) {
				t.Errorf("immigrants %g vs naive %g", got.Immigrants, want.Immigrants)
			}
			for j := range got.PerUser {
				if math.Abs(got.PerUser[j]-want.PerUser[j]) > 1e-9*math.Max(1, want.PerUser[j]) {
					t.Errorf("user %d: %g vs naive %g", j, got.PerUser[j], want.PerUser[j])
				}
			}
		})
	}
}

// TestInfluenceMassConservation: scores are non-negative and every event
// distributes exactly one unit of parentage mass.
func TestInfluenceMassConservation(t *testing.T) {
	const m = 5
	seq := influenceSeq(m, 60, 3)
	for name, p := range influenceProcs(t, m) {
		t.Run(name, func(t *testing.T) {
			s, err := Influence(p, seq, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if s.Events != seq.Len() {
				t.Fatalf("events %d, want %d", s.Events, seq.Len())
			}
			sum := 0.0
			for j, v := range s.PerUser {
				if v < 0 {
					t.Errorf("PerUser[%d] = %g < 0", j, v)
				}
				sum += v
			}
			sum += s.Immigrants
			if s.Immigrants < 0 {
				t.Errorf("Immigrants = %g < 0", s.Immigrants)
			}
			if math.Abs(sum-float64(seq.Len())) > 1e-9*float64(seq.Len()) {
				t.Errorf("mass %g, want %d", sum, seq.Len())
			}
			if s.Total()+s.Immigrants != sum {
				t.Errorf("Total() disagrees with direct sum")
			}
		})
	}
}

// TestInfluenceDeterministicAcrossWorkers pins bit-identical scores at every
// worker count (chunk-order reduction).
func TestInfluenceDeterministicAcrossWorkers(t *testing.T) {
	const m = 4
	seq := influenceSeq(m, 50, 9)
	p := influenceProcs(t, m)["exp-linear"]
	base, err := Influence(p, seq, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 8} {
		got, err := Influence(p, seq, Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if got.Immigrants != base.Immigrants {
			t.Fatalf("workers=%d: immigrants %g != %g", w, got.Immigrants, base.Immigrants)
		}
		for j := range got.PerUser {
			if got.PerUser[j] != base.PerUser[j] {
				t.Fatalf("workers=%d: PerUser[%d] %g != %g", w, j, got.PerUser[j], base.PerUser[j])
			}
		}
	}
}

// TestInfluenceEdgeCases: empty history, zero-rate events, validation.
func TestInfluenceEdgeCases(t *testing.T) {
	p := influenceProcs(t, 3)["exp-linear"]

	empty := &timeline.Sequence{M: 3, Horizon: 10}
	s, err := Influence(p, empty, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Events != 0 || s.Immigrants != 0 || s.Total() != 0 {
		t.Errorf("empty history: %+v", s)
	}

	// A zero-baseline, zero-excitation process assigns every event zero
	// rate: each must count as one immigrant (the Categorical fallback).
	exc, err := hawkes.NewConstExcitation([][]float64{{0, 0}, {0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	dead := &hawkes.Process{
		M: 2, Mu: []float64{0, 0}, Exc: exc,
		Kernels: hawkes.SharedKernel{K: kernel.Exponential{Rate: 1, Scale: 1}},
		Link:    hawkes.LinearLink{},
	}
	seq := influenceSeq(2, 10, 4)
	s, err = Influence(dead, seq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Immigrants != float64(seq.Len()) || s.Total() != 0 {
		t.Errorf("dead process: immigrants %g total %g, want %d and 0", s.Immigrants, s.Total(), seq.Len())
	}

	if _, err := Influence(p, nil, Options{}); err == nil {
		t.Error("nil sequence must fail validation")
	}
	wrongM := &timeline.Sequence{M: 99, Horizon: 1}
	if _, err := Influence(p, wrongM, Options{}); err == nil {
		t.Error("M mismatch must fail validation")
	}
	for name, bad := range badHistories() {
		bad.M = 3
		_, err := Influence(p, bad, Options{})
		if err == nil {
			t.Fatalf("%s: accepted", name)
		}
		asValidation(t, err, "history")
	}
}
