// Package conformity quantifies the two flavors of conformity CHASSIS
// injects into the Hawkes excitation (Section 5 of the paper), from a
// sequence of polarity-annotated activities and a branching structure
// (diffusion forest):
//
//   - Informational influence αᴵᵢⱼ(t) = Φᵢⱼ(t)·Ψᵢⱼ(t): the influence degree
//     Φ (Eq. 5.1) — an exponentially decayed, normalized count of
//     parent-child interactions j→i — times the context stance Ψ — the
//     Pearson correlation of the polarities exchanged in those
//     interactions.
//   - Normative influence αᴺᵢⱼ(t) (Eq. 5.2): the Pearson correlation of
//     polarity vectors accumulated over whole cascades, via Scenario 1
//     (aligned same-path pairs) and Scenario 2 (cross-path pairs
//     recalibrated through their lowest common ancestor, capturing
//     "fashion leader" opinion shifts).
//
// All quantities are time-varying; a Computer answers point-in-time queries
// against prefix structures built once per (sequence, forest) pair, so the
// EM loop can rebuild them cheaply after each E-step.
//
// Two construction paths feed the SAME column-based build, so they agree
// bit-for-bit: New for an in-memory sequence, and Accumulator for streamed
// corpora (the out-of-core sharded fit appends (time, user, polarity)
// triples shard by shard, then finalizes against the iteration's forest).
package conformity

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"chassis/internal/branching"
	"chassis/internal/stats"
	"chassis/internal/timeline"
)

// Options tunes conformity extraction.
type Options struct {
	// MaxTreePairs caps the ordered activity pairs enumerated per cascade
	// for normative conformity; larger trees fall back to all ancestor
	// (Scenario 1) pairs plus a deterministic stride sample of cross-path
	// (Scenario 2) pairs. 0 means the default of 20000.
	MaxTreePairs int
	// MaxActivePairs bounds how many ordered (receiver, source) pairs a
	// build may materialize — the working-set knob for out-of-core fits,
	// where per-pair series are the only conformity state that grows with
	// the corpus rather than with shard size. Exceeding the budget aborts
	// the build with *PairBudgetError instead of silently dropping pairs
	// (a dropped pair would change fitted parameters). 0 means unlimited.
	MaxActivePairs int
	// IncludeSelf also tracks a user's conformity to themselves. The paper
	// pairs distinct individuals, so the default is false.
	IncludeSelf bool
	// DisableLCA turns off Scenario 2 (cross-path pairs recalibrated
	// through their lowest common ancestor), leaving only same-path
	// Scenario 1 pairs in the normative influence — the ablation knob for
	// the "fashion leader" mechanism.
	DisableLCA bool
}

func (o *Options) fill() {
	if o.MaxTreePairs <= 0 {
		o.MaxTreePairs = 20000
	}
}

// PairBudgetError reports that a conformity build needed more ordered pairs
// than Options.MaxActivePairs allows. The caller should either raise the
// budget or shrink the pair support (e.g. a larger stride cap).
type PairBudgetError struct{ Budget int }

func (e *PairBudgetError) Error() string {
	return fmt.Sprintf("conformity: active-pair budget of %d exceeded", e.Budget)
}

// OutOfOrderError reports a non-chronological append to an Accumulator.
type OutOfOrderError struct {
	Index      int     // position of the offending event
	Time, Prev float64 // its time and the preceding event's time
}

func (e *OutOfOrderError) Error() string {
	return fmt.Sprintf("conformity: event %d at t=%g precedes the previous event at t=%g", e.Index, e.Time, e.Prev)
}

// PairKey identifies an ordered (receiver, source) user pair with recorded
// interactions.
type PairKey struct{ Receiver, Source int }

// Computer answers conformity queries for one (sequence, forest) pair. Its
// pairs are stored flat in CSR order: receiver i's sources are
// src[row[i]:row[i+1]], ascending, and pair p (an index into src) owns two
// series in the shared sample columns — informational (parent-child
// interactions j→i: (p_parent, p_child)) at [off[2p], off[2p+1]) and
// normative (cascade-level contributions (x_j, y_i)) at
// [off[2p+1], off[2p+2]).
type Computer struct {
	row, src []int32
	off      []int32
	cols     series
	// User i's offspring activity times, sorted, are
	// kids[kidRow[i]:kidRow[i+1]]: the denominator ℕᵢ(t) of Eq. 5.1.
	kidRow []int32
	kids   []float64
}

// New extracts conformity structures. Activities must carry polarities
// (see stance.AnnotateSequence); the forest must cover the same activities.
func New(seq *timeline.Sequence, forest *branching.Forest, opts Options) (*Computer, error) {
	if seq == nil || forest == nil {
		return nil, errors.New("conformity: nil sequence or forest")
	}
	n := seq.Len()
	times := make([]float64, n)
	polar := make([]float64, n)
	users := make([]int32, n)
	for k := range seq.Activities {
		a := &seq.Activities[k]
		times[k] = a.Time
		polar[k] = a.Polarity
		users[k] = int32(a.User)
	}
	return fromColumns(seq.M, times, users, polar, forest, opts)
}

// Accumulator buffers a chronological stream of (time, user, polarity)
// events — e.g. one colstore shard scan at a time — and finalizes into a
// Computer once the iteration's parent assignments are known. Its memory is
// three flat columns (20 bytes/event), the floor for conformity extraction:
// normative pairs relate events arbitrarily far apart in time, so no online
// build can discard history before the forest arrives.
type Accumulator struct {
	m     int
	opts  Options
	times []float64
	users []int32
	polar []float64
}

// NewAccumulator prepares a streamed conformity build over m users.
func NewAccumulator(m int, opts Options) *Accumulator {
	return &Accumulator{m: m, opts: opts}
}

// Append records one event. Events must arrive in nondecreasing time order
// (the colstore write path already guarantees this); a violation returns
// *OutOfOrderError, since a silently reordered stream would desynchronize
// the columns from the forest's activity indexes.
func (a *Accumulator) Append(t float64, user int, polarity float64) error {
	if n := len(a.times); n > 0 && t < a.times[n-1] {
		return &OutOfOrderError{Index: n, Time: t, Prev: a.times[n-1]}
	}
	a.times = append(a.times, t)
	a.users = append(a.users, int32(user))
	a.polar = append(a.polar, polarity)
	return nil
}

// Len returns how many events have been appended.
func (a *Accumulator) Len() int { return len(a.times) }

// Finalize builds the Computer against the given forest, which must cover
// exactly the appended events (activity index k = append order k).
func (a *Accumulator) Finalize(forest *branching.Forest) (*Computer, error) {
	return fromColumns(a.m, a.times, a.users, a.polar, forest, a.opts)
}

// sample is one (x, y) observation for a pair series, timestamped by the
// later activity e2 (by the receiver i); e1 is the earlier one (by the
// source j). lca is the Scenario-2 lowest common ancestor, -1 otherwise.
type sample struct {
	t           float64
	i, j        int32
	e1, e2, lca int32
	q           int32 // series index 2·pair + kind, set by indexPairs
}

// fromColumns is the shared build entry: both New and Accumulator.Finalize
// land here, which is what makes the streamed computer bit-identical to the
// in-memory one. It enumerates every sample, numbers the distinct pairs in
// CSR order, groups the samples by series — informational in activity
// order, then normative in time order — and streams each series into
// columns sized exactly beforehand.
func fromColumns(m int, times []float64, users []int32, polar []float64, forest *branching.Forest, opts Options) (*Computer, error) {
	if forest == nil {
		return nil, errors.New("conformity: nil forest")
	}
	if forest.Len() != len(times) {
		return nil, fmt.Errorf("conformity: forest covers %d nodes, sequence has %d", forest.Len(), len(times))
	}
	opts.fill()
	samples, nInfo, err := enumerate(times, users, forest, opts)
	if err != nil {
		return nil, err
	}
	c := &Computer{}
	c.offspring(m, times, users, forest)
	if err := c.indexPairs(m, samples, nInfo, opts.MaxActivePairs); err != nil {
		return nil, err
	}
	off, perm := groupBy(2*len(c.src), len(samples), func(s int) int32 { return samples[s].q })
	c.off = off
	c.cols = series{times: make([]float64, len(samples)), sums: make([]moments, len(samples))}
	for q := 0; q+1 < len(off); q++ {
		// Scenario-2 running accumulators of this pair: source side and
		// receiver side vs the LCA, from which the recalibrated
		// correlations are drawn.
		var aj, ai stats.PearsonAcc
		ser := c.cols.slice(off[q], off[q+1])
		for k, s := range perm[off[q]:off[q+1]] {
			sm := &samples[s]
			x, y := polar[sm.e1], polar[sm.e2]
			if sm.lca >= 0 {
				lcaPol := polar[sm.lca]
				aj.Add(x, lcaPol)
				ai.Add(y, lcaPol)
				x, y = corrOrSeed(&aj, x, lcaPol), corrOrSeed(&ai, y, lcaPol)
			}
			ser.put(k, sm.t, x, y)
		}
	}
	return c, nil
}

// groupBy stably orders the items 0..n-1 by key in [0, keys) with one
// counting pass, leaving out items keyed -1: key u's items are
// perm[start[u]:start[u+1]].
func groupBy(keys, n int, key func(int) int32) (start, perm []int32) {
	start = make([]int32, keys+1)
	for k := 0; k < n; k++ {
		if u := key(k); u >= 0 {
			start[u]++
		}
	}
	for u := 1; u <= keys; u++ {
		start[u] += start[u-1]
	}
	// start[u] now ends key u; filling backwards moves it to the start.
	perm = make([]int32, start[keys])
	for k := n - 1; k >= 0; k-- {
		if u := key(k); u >= 0 {
			start[u]--
			perm[start[u]] = int32(k)
		}
	}
	return start, perm
}

// treePairs returns an n-activity cascade's ordered pair count and the
// stride that thins its cross-path pairs to about maxPairs.
func treePairs(n, maxPairs int) (total, stride int) {
	total = n * (n - 1) / 2
	return total, max(1, (total+maxPairs-1)/maxPairs)
}

// enumerate lists every sample: first the parent-child interactions in
// activity (chronological) order, then, per cascade, the ordered activity
// pairs of distinct users split into Scenario 1 (ancestor) and Scenario 2
// (cross-path, recalibrated through the LCA), sorted stably by time —
// exactly the "scanning all information cascades up to time t" procedure of
// Section 5.2. The slice is sized up front from each tree's ancestor-pair
// count and stride.
func enumerate(times []float64, users []int32, forest *branching.Forest, opts Options) ([]sample, int, error) {
	start, nodes := forest.Trees()
	size := forest.Len() - forest.NumTrees()
	for id := 0; id+1 < len(start); id++ {
		tree := nodes[start[id]:start[id+1]]
		total, stride := treePairs(len(tree), opts.MaxTreePairs)
		anc := 0
		for _, v := range tree {
			anc += forest.Depth(int(v))
		}
		size += anc
		if !opts.DisableLCA {
			size += (total - anc) / stride
		}
	}
	if size > math.MaxInt32 {
		return nil, 0, fmt.Errorf("conformity: up to %d samples exceed the int32 column range", size)
	}
	samples := make([]sample, 0, size)
	for k := range times {
		parent := forest.Parent(k)
		if parent == timeline.NoParent {
			continue
		}
		i, j := users[k], users[parent]
		if i == j && !opts.IncludeSelf {
			continue
		}
		samples = append(samples, sample{t: times[k], i: i, j: j, e1: int32(parent), e2: int32(k), lca: -1})
	}
	nInfo := len(samples)
	for id := 0; id+1 < len(start); id++ {
		tree := nodes[start[id]:start[id+1]]
		_, stride := treePairs(len(tree), opts.MaxTreePairs)
		count := 0
		for b := 1; b < len(tree); b++ {
			e2 := int(tree[b])
			for a := 0; a < b; a++ {
				e1 := int(tree[a])
				if users[e1] == users[e2] && !opts.IncludeSelf {
					continue
				}
				if times[e1] >= times[e2] {
					continue
				}
				isAncestor := forest.IsAncestor(e1, e2)
				if !isAncestor && opts.DisableLCA {
					continue
				}
				lca := -1
				if !isAncestor {
					// Scenario 2 pairs are the ones subsampled under the cap;
					// ancestor pairs always survive (they carry the direct
					// chain-of-influence signal).
					count++
					if stride > 1 && count%stride != 0 {
						continue
					}
					lca = forest.LCA(e1, e2)
				}
				samples = append(samples, sample{
					t: times[e2], i: users[e2], j: users[e1],
					e1: int32(e1), e2: int32(e2), lca: int32(lca),
				})
			}
		}
	}
	// Times are finite (colstore and sequence validation reject NaN), so
	// cmp.Compare orders them exactly as <.
	slices.SortStableFunc(samples[nInfo:], func(a, b sample) int { return cmp.Compare(a.t, b.t) })
	return samples, nInfo, nil
}

// offspring lays out every user's offspring activity times.
func (c *Computer) offspring(m int, times []float64, users []int32, forest *branching.Forest) {
	row, perm := groupBy(m, len(times), func(k int) int32 {
		if forest.Parent(k) == timeline.NoParent {
			return -1
		}
		return users[k]
	})
	c.kidRow, c.kids = row, make([]float64, len(perm))
	for p, k := range perm {
		c.kids[p] = times[k]
	}
	// Activity order is chronological, but guard against ties reordering.
	for i := 0; i < m; i++ {
		sort.Float64s(c.kids[row[i]:row[i+1]])
	}
}

// indexPairs numbers the distinct (receiver, source) pairs of the samples
// in CSR order — two stable groupings, by source and then by receiver,
// line the samples up pair by pair — sets each sample's series index and
// fills row and src. Options.MaxActivePairs trips exactly when the distinct
// pairs exceed it, before any series column is allocated.
func (c *Computer) indexPairs(m int, samples []sample, nInfo, budget int) error {
	_, bySrc := groupBy(m, len(samples), func(s int) int32 { return samples[s].j })
	_, byPair := groupBy(m, len(bySrc), func(k int) int32 { return samples[bySrc[k]].i })
	c.row = make([]int32, m+1)
	pairs := int32(0)
	var prev *sample
	for _, b := range byPair {
		s := bySrc[b]
		sm := &samples[s]
		if prev == nil || sm.i != prev.i || sm.j != prev.j {
			// The entries of byPair read so far are free to collect the
			// pairs' sources.
			byPair[pairs] = sm.j
			pairs++
			c.row[sm.i+1]++
		}
		prev = sm
		sm.q = 2 * (pairs - 1)
		if int(s) >= nInfo {
			sm.q++
		}
	}
	if budget > 0 && int(pairs) > budget {
		return &PairBudgetError{Budget: budget}
	}
	for u := 1; u <= m; u++ {
		c.row[u] += c.row[u-1]
	}
	c.src = slices.Clone(byPair[:pairs])
	return nil
}

// corrOrSeed reads a Scenario-2 side accumulator: the Pearson correlation
// once it holds two or more samples, and before that the sign agreement
// sign(x·y) of the single contribution just added. Pearson is undefined for
// one sample — PearsonAcc.Corr() returns 0 there, and feeding that 0 into
// the series would permanently void every pair's FIRST cross-path
// contribution as a (0, 0) sample diluting all later prefix correlations.
// The sign-agreement seed is the same small-evidence fallback corrAt itself
// uses, so a pair's normative stance is meaningful from its first
// recalibrated sample on. (With ≥ 2 samples a zero-variance side still
// reads 0 from Corr() — "no measurable stance" — unchanged.)
func corrOrSeed(a *stats.PearsonAcc, x, y float64) float64 {
	if a.N() >= 2 {
		return a.Corr()
	}
	if p := x * y; p > 0 {
		return 1
	} else if p < 0 {
		return -1
	}
	return 0
}

// seriesOf returns pair (i, j)'s informational (kind 0) or normative
// (kind 1) series, empty when the pair has no samples.
func (c *Computer) seriesOf(i, j int, kind int32) series {
	if i < 0 || i >= len(c.row)-1 {
		return series{}
	}
	lo, hi := c.row[i], c.row[i+1]
	k, ok := slices.BinarySearch(c.src[lo:hi], int32(j))
	if !ok {
		return series{}
	}
	q := 2*(lo+int32(k)) + kind
	return c.cols.slice(c.off[q], c.off[q+1])
}

// offspringCountAt returns ℕᵢ(t): user i's offspring activities up to t.
func (c *Computer) offspringCountAt(i int, t float64) int {
	return countUpTo(c.kids[c.kidRow[i]:c.kidRow[i+1]], t)
}

// InfluenceDegree returns Φᵢⱼ(t) of Eq. 5.1 under decay rate β: the
// normalized, exponentially decayed count of j→i parent-child interactions.
// Always in [0, 1].
func (c *Computer) InfluenceDegree(i, j int, t, beta float64) float64 {
	phi, _ := c.InfluenceDegreeGrad(i, j, t, beta)
	return phi
}

// InfluenceDegreeGrad returns Φᵢⱼ(t) and ∂Φᵢⱼ(t)/∂β.
func (c *Computer) InfluenceDegreeGrad(i, j int, t, beta float64) (phi, dBeta float64) {
	g := c.InformationalCursor(i, j, beta)
	return g.degree(t)
}

// ContextStance returns Ψᵢⱼ(t): the Pearson correlation of polarities over
// the j→i parent-child interactions up to t, in [-1, 1].
func (c *Computer) ContextStance(i, j int, t float64) float64 {
	return c.seriesOf(i, j, 0).corrAt(t)
}

// Informational returns αᴵᵢⱼ(t) = Φᵢⱼ(t)·Ψᵢⱼ(t).
func (c *Computer) Informational(i, j int, t, beta float64) float64 {
	return c.InfluenceDegree(i, j, t, beta) * c.ContextStance(i, j, t)
}

// InformationalGrad returns αᴵᵢⱼ(t) and its derivative with respect to β.
func (c *Computer) InformationalGrad(i, j int, t, beta float64) (alpha, dBeta float64) {
	phi, dphi := c.InfluenceDegreeGrad(i, j, t, beta)
	psi := c.ContextStance(i, j, t)
	return phi * psi, dphi * psi
}

// GradCursor sweeps αᴵᵢⱼ(t) and its β-derivative at nondecreasing query
// times for one fixed (i, j, β), consuming each interaction sample once
// across the sweep — the linear-time replacement for calling
// InformationalGrad per source event inside the M-step objective, and
// bit-identical to it at every query point (the decay recursion's state
// does not depend on where queries fall between samples).
type GradCursor struct {
	c    *Computer
	info series
	i    int
	cur  decayCursor
}

// InformationalCursor starts a monotone αᴵᵢⱼ sweep at decay rate beta.
func (c *Computer) InformationalCursor(i, j int, beta float64) GradCursor {
	info := c.seriesOf(i, j, 0)
	return GradCursor{c: c, info: info, i: i, cur: info.cursor(beta)}
}

// At returns αᴵᵢⱼ(t) and ∂αᴵᵢⱼ(t)/∂β. Query times must be nondecreasing
// across calls on one cursor.
func (g *GradCursor) At(t float64) (alpha, dBeta float64) {
	phi, dphi := g.degree(t)
	psi := g.info.corrAt(t)
	return phi * psi, dphi * psi
}

// degree returns Φᵢⱼ(t) and ∂Φᵢⱼ(t)/∂β, advancing the cursor to t.
func (g *GradCursor) degree(t float64) (phi, dBeta float64) {
	if g.info.len() == 0 {
		return 0, 0
	}
	n := g.c.offspringCountAt(g.i, t)
	if n == 0 {
		return 0, 0
	}
	sum, dsum := g.cur.at(t)
	inv := 1 / float64(n)
	return sum * inv, dsum * inv
}

// Normative returns αᴺᵢⱼ(t) of Eq. 5.2.
func (c *Computer) Normative(i, j int, t float64) float64 {
	return c.seriesOf(i, j, 1).corrAt(t)
}

// InteractionCount returns how many parent-child interactions j→i exist in
// the whole window (the size of N_ij(T)).
func (c *Computer) InteractionCount(i, j int) int {
	return c.seriesOf(i, j, 0).len()
}

// ActivePairs lists every ordered pair with at least one informational or
// normative sample — the sparse support the M-step iterates instead of all
// M² pairs — in (receiver, source) order.
func (c *Computer) ActivePairs() []PairKey {
	out := make([]PairKey, 0, len(c.src))
	for i := 0; i+1 < len(c.row); i++ {
		for _, j := range c.src[c.row[i]:c.row[i+1]] {
			out = append(out, PairKey{Receiver: i, Source: int(j)})
		}
	}
	return out
}
