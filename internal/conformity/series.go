package conformity

import (
	"math"
	"sort"
)

// series is a chronologically ordered stream of paired polarity samples
// with prefix moments, so the Pearson correlation restricted to any prefix
// [0, t] — the time-varying context stance — is an O(log n) query. A
// Computer keeps all its series back to back in one pair of columns; a
// series value is a window onto them.
type series struct {
	times []float64
	sums  []moments // sums[k] totals samples 0..k
}

// moments are the cumulative sums of a series prefix. sgn accumulates
// sign(x·y): the per-sample agreement indicator.
type moments struct{ sx, sy, sxx, syy, sxy, sgn float64 }

// slice returns the window of samples [lo, hi).
func (s series) slice(lo, hi int32) series {
	return series{times: s.times[lo:hi], sums: s.sums[lo:hi]}
}

// put writes sample k at time t (which must be >= sample k-1's), given
// samples 0..k-1 already in place.
// A non-finite polarity on either side voids the whole pair — both values
// are recorded as 0 ("no measurable stance"). A NaN would otherwise poison
// every prefix sum after it and make corrAt return NaN for all later
// queries, and zeroing only the bad side would fabricate stance from the
// surviving one; the timestamp is kept either way so decay sums still see
// the interaction.
func (s series) put(k int, t, x, y float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
		x, y = 0, 0
	}
	var p moments
	if k > 0 {
		p = s.sums[k-1]
	}
	sg := 0.0
	if xy := x * y; xy > 0 {
		sg = 1
	} else if xy < 0 {
		sg = -1
	}
	s.times[k] = t
	s.sums[k] = moments{p.sx + x, p.sy + y, p.sxx + x*x, p.syy + y*y, p.sxy + x*y, p.sgn + sg}
}

// countAt returns how many samples have time ≤ t.
func (s series) countAt(t float64) int { return countUpTo(s.times, t) }

// countUpTo returns how many of the sorted times are ≤ t.
func countUpTo(times []float64, t float64) int {
	return sort.SearchFloat64s(times, math.Nextafter(t, math.Inf(1)))
}

// corrAt returns the context-stance of the samples with time ≤ t: the
// Pearson correlation shrunk toward the mean sign-agreement
// (1/k)·Σ sign(xᵢyᵢ) with pseudo-count 3,
//
//	Ψ̂ = (k·Pcc + 3·signAgree) / (k + 3),
//
// and the pure sign-agreement when Pearson is undefined (fewer than two
// samples, or a zero-variance side). Raw small-sample Pearson is extremely
// noisy — and exactly zero for a pair that always agrees with the same
// polarity — while sign-agreement is the stable, psychologically faithful
// reading of "i's stance aligns with j's"; the blend converges to Pcc as
// evidence accumulates. Without a fallback every pair would contribute
// zero excitation until its stance history is rich, starving the EM loop.
func (s series) corrAt(t float64) float64 {
	k := s.countAt(t)
	if k == 0 {
		return 0
	}
	m := &s.sums[k-1]
	n := float64(k)
	agree := m.sgn / n
	cov := m.sxy - m.sx*m.sy/n
	vx := m.sxx - m.sx*m.sx/n
	vy := m.syy - m.sy*m.sy/n
	if k < 2 || vx <= 1e-15 || vy <= 1e-15 {
		return agree
	}
	r := cov / math.Sqrt(vx*vy)
	if math.IsNaN(r) {
		// Unreachable with sanitized samples, but a stance query must never
		// return NaN — fall back to the sign-agreement read.
		return agree
	}
	if r > 1 {
		r = 1
	} else if r < -1 {
		r = -1
	}
	return (n*r + 3*agree) / (n + 3)
}

// len returns the total number of samples.
func (s series) len() int { return len(s.times) }

// decayCursor incrementally evaluates Σ_{times[k] ≤ t} e^{−β(t−times[k])}
// and its β-derivative for ONE fixed β at nondecreasing query times, via the
// exponential recursion (the same trick as internal/hawkes/fastpath.go):
//
//	A_k = A_{k−1}·e^{−βΔ} + 1,   B_k = e^{−βΔ}·(B_{k−1} + Δ·A_{k−1}),
//
// with Δ = t_k − t_{k−1}, so a query at t ≥ t_k needs only δ = t − t_k:
//
//	sum = A_k·e^{−βδ},   dSum/dβ = −(B_k + δ·A_k)·e^{−βδ}.
//
// Each sample is consumed once across the cursor's lifetime, so a monotone
// sweep of q queries over a k-sample series costs O(k + q) instead of the
// naive rescan's O(k·q) — the difference between a linear and a quadratic
// M-step β-gradient over a pair's history. Querying never mutates the
// recursion state, so interleaving queries with sample consumption yields
// bit-identical floats to a one-shot evaluation at the final time.
type decayCursor struct {
	ts   []float64 // the series' sample times
	beta float64
	idx  int     // samples consumed so far
	a    float64 // A_k: decayed count at the last consumed sample
	b    float64 // B_k: decayed age sum at the last consumed sample
	last float64 // time of the last consumed sample
}

// cursor starts a monotone decay-sum sweep at the given decay rate.
func (s series) cursor(beta float64) decayCursor {
	return decayCursor{ts: s.times, beta: beta}
}

// at returns the decayed sum and its β-derivative at time t. Query times
// must be nondecreasing across calls; samples with time ≤ t are consumed
// (the tie rule matches countAt's Nextafter upper bound: a sample exactly at
// t counts, with e^0 = 1).
func (c *decayCursor) at(t float64) (sum, dBeta float64) {
	ts := c.ts
	for c.idx < len(ts) && ts[c.idx] <= t {
		tk := ts[c.idx]
		if c.idx == 0 {
			c.a, c.b = 1, 0
		} else {
			dt := tk - c.last
			e := math.Exp(-c.beta * dt)
			c.b = e * (c.b + dt*c.a)
			c.a = c.a*e + 1
		}
		c.last = tk
		c.idx++
	}
	if c.idx == 0 {
		return 0, 0
	}
	delta := t - c.last
	e := math.Exp(-c.beta * delta)
	return c.a * e, -(c.b + delta*c.a) * e
}
