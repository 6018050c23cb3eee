package conformity

import (
	"testing"

	"chassis/internal/branching"
	"chassis/internal/rng"
	"chassis/internal/timeline"
)

// deepForest interleaves n activities round-robin over the given number of
// cascades. Each non-root activity replies to one of the last four
// activities of its own cascade, so trees grow deep and large trees exceed
// the default stride cap. Users are drawn from the first `users` of m.
func deepForest(t testing.TB, seed int64, n, m, trees, users int) (*timeline.Sequence, *branching.Forest) {
	t.Helper()
	r := rng.New(seed)
	seq := &timeline.Sequence{M: m, Horizon: float64(n) + 1}
	members := make([][]timeline.ActivityID, trees)
	for k := 0; k < n; k++ {
		tree := k % trees
		parent := timeline.NoParent
		if ms := members[tree]; len(ms) > 0 {
			back := 4
			if len(ms) < back {
				back = len(ms)
			}
			parent = ms[len(ms)-1-r.Intn(back)]
		}
		members[tree] = append(members[tree], timeline.ActivityID(k))
		seq.Activities = append(seq.Activities, timeline.Activity{
			ID: timeline.ActivityID(k), User: timeline.UserID(r.Intn(users)),
			Time: float64(k) + 0.5, Polarity: r.Uniform(-1, 1), Parent: parent,
		})
	}
	f, err := branching.FromSequence(seq)
	if err != nil {
		t.Fatal(err)
	}
	return seq, f
}

// TestBuildAllocsIndependentOfPairs: a build allocates a fixed number of
// flat arrays, so two forests over the same M whose active-pair counts
// differ tenfold cost the same number of allocations. A per-pair object
// (a map entry, a slice per series) makes the larger build allocate more.
func TestBuildAllocsIndependentOfPairs(t *testing.T) {
	const n, m = 600, 300
	few, fewF := deepForest(t, 3, n, m, 6, 4)
	many, manyF := deepForest(t, 3, n, m, 6, m)
	cFew, err := New(few, fewF, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cMany, err := New(many, manyF, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pFew, pMany := len(cFew.ActivePairs()), len(cMany.ActivePairs())
	if pMany < 10*pFew {
		t.Fatalf("fixture pairs %d vs %d: want a tenfold spread", pFew, pMany)
	}
	allocs := func(seq *timeline.Sequence, f *branching.Forest) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := New(seq, f, Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := allocs(few, fewF), allocs(many, manyF); b > a {
		t.Fatalf("build allocations grow with pairs: %v allocs for %d pairs, %v for %d", a, pFew, b, pMany)
	}
}

var buildSink *Computer

// BenchmarkBuild times one conformity build over deep cascades large
// enough to hit the default stride cap of MaxTreePairs.
func BenchmarkBuild(b *testing.B) {
	seq, f := deepForest(b, 9, 3000, 200, 10, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		c, err := New(seq, f, Options{})
		if err != nil {
			b.Fatal(err)
		}
		buildSink = c
	}
}
