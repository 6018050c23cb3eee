package conformity

// newSeries starts a standalone series that add grows one sample at a time,
// the way the series tests drive it; a Computer's build writes its pre-sized
// columns with put instead.
func newSeries() *series { return &series{} }

// add appends a sample at time t (which must be >= the last time).
func (s *series) add(t, x, y float64) {
	s.times = append(s.times, 0)
	s.sums = append(s.sums, moments{})
	s.put(len(s.times)-1, t, x, y)
}

// decaySumAt returns Σ_{times[k] ≤ t} e^{−β(t−times[k])} and its derivative
// with respect to β from a fresh recursion cursor: the one-shot evaluation
// InfluenceDegreeGrad makes.
func (s series) decaySumAt(t, beta float64) (sum, dBeta float64) {
	c := s.cursor(beta)
	return c.at(t)
}
