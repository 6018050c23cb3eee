package conformity

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"chassis/internal/branching"
	"chassis/internal/rng"
	"chassis/internal/timeline"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current output")

// goldenSeq is the fixture of the query golden: 60 activities over 4 users
// in many small-to-medium cascades. Times advance in steps of one shared by
// three consecutive activities, so different trees hold activities at equal
// times (which pins the stable tie order of normative contributions), and
// activity 17 carries a NaN polarity.
func goldenSeq(t *testing.T) (*timeline.Sequence, *branching.Forest) {
	t.Helper()
	r := rng.New(20)
	seq := &timeline.Sequence{M: 4, Horizon: 25}
	for k := 0; k < 60; k++ {
		parent := timeline.NoParent
		if k > 0 && r.Bernoulli(0.8) {
			parent = timeline.ActivityID(r.Intn(k))
		}
		pol := r.Uniform(-1, 1)
		if k == 17 {
			pol = math.NaN()
		}
		seq.Activities = append(seq.Activities, timeline.Activity{
			ID: timeline.ActivityID(k), User: timeline.UserID(r.Intn(seq.M)),
			Time: float64(k/3) + 1, Polarity: pol, Parent: parent,
		})
	}
	f, err := branching.FromSequence(seq)
	if err != nil {
		t.Fatal(err)
	}
	return seq, f
}

// goldenLines renders every query a Computer answers over a grid of
// (i, j, t, β), one line per (pair, t), with each float in its shortest
// exact decimal form so a one-bit difference changes the text.
func goldenLines(c *Computer, m int) []string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var out []string
	for _, p := range c.ActivePairs() {
		out = append(out, fmt.Sprintf("active %d %d", p.Receiver, p.Source))
	}
	times := []float64{0.5, 3, 7, 7.5, 12, 16, 21}
	betas := []float64{0.15, 1.3}
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			out = append(out, fmt.Sprintf("count %d %d %d", i, j, c.InteractionCount(i, j)))
			curs := make([]GradCursor, len(betas))
			for b, beta := range betas {
				curs[b] = c.InformationalCursor(i, j, beta)
			}
			for _, t := range times {
				line := []string{"q", strconv.Itoa(i), strconv.Itoa(j), f(t), f(c.Normative(i, j, t))}
				for b, beta := range betas {
					a, d := c.InformationalGrad(i, j, t, beta)
					ca, cd := curs[b].At(t)
					line = append(line, "|", f(c.Informational(i, j, t, beta)), f(a), f(d), f(ca), f(cd))
				}
				out = append(out, strings.Join(line, " "))
			}
		}
	}
	return out
}

// TestQueryGolden pins Informational, InformationalGrad,
// InformationalCursor.At, Normative, InteractionCount and ActivePairs bit
// for bit under Scenario 1 and 2 with LCA recalibration, a stride cap small
// enough to subsample cross-path pairs, IncludeSelf and DisableLCA. The
// file changes only when the conformity model itself changes; regenerate
// with:
//
//	go test ./internal/conformity/ -run TestQueryGolden -update
func TestQueryGolden(t *testing.T) {
	seq, f := goldenSeq(t)
	cases := []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"stride", Options{MaxTreePairs: 6}},
		{"self", Options{IncludeSelf: true}},
		{"nolca", Options{DisableLCA: true}},
	}
	var got []string
	for _, tc := range cases {
		c, err := New(seq, f, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range goldenLines(c, seq.M) {
			got = append(got, tc.name+" "+l)
		}
	}
	path := filepath.Join("testdata", "queries.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d lines)", path, len(got))
		return
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(blob), "\n"), "\n")
	for k := 0; k < len(want) && k < len(got); k++ {
		if got[k] != want[k] {
			t.Fatalf("line %d differs:\n got  %s\n want %s", k+1, got[k], want[k])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("got %d lines, golden has %d", len(got), len(want))
	}
}
