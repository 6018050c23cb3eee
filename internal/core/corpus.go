package core

import (
	"chassis/internal/branching"
	"chassis/internal/conformity"
	"chassis/internal/parallel"
	"chassis/internal/timeline"
)

// corpus is the training data as the EM driver reads it. Every pass the
// driver makes goes through one of these methods, so the driver itself never
// knows whether the events live in memory or on disk:
//   - scan: one chronological (time, user) pass — the M-step's batch builder
//     and the source rankings;
//   - forEach: the E-step and bootstrap windows, each handed with its slice
//     of the global estepChunkSize chunk grid;
//   - buildConformity: the pair-history snapshot under a forest;
//   - fingerprint: the checkpoint's data identity.
//
// Two implementations exist. memCorpus is an in-memory sequence: one window,
// no halo. shardSource is a colstore corpus: halo-extended shard windows.
// Because both feed the same chunk bodies the same global chunk grid, a fit
// computes the same floats over either.
type corpus interface {
	dims() int
	numEvents() int
	horizon() float64
	scan(fn func(t float64, user int))
	forEach(support float64, fn func(win []timeline.Activity, off int, chunks []parallel.Range) error) error
	buildConformity(forest *branching.Forest, opts conformity.Options) (*conformity.Computer, error)
	fingerprint() string
}

// memCorpus is an in-memory sequence as a corpus. seq is what the EM reads
// (FitContext passes the parent-stripped copy); train is the caller's
// sequence, parents intact, which observed-tree fits, the checkpoint
// fingerprint and the fitted model's held-out evaluation read.
type memCorpus struct {
	seq, train *timeline.Sequence
}

// inMemory wraps a sequence that is both read and kept as is.
func inMemory(seq *timeline.Sequence) *memCorpus { return &memCorpus{seq: seq, train: seq} }

func (c *memCorpus) dims() int        { return c.seq.M }
func (c *memCorpus) numEvents() int   { return c.seq.Len() }
func (c *memCorpus) horizon() float64 { return c.seq.Horizon }

func (c *memCorpus) scan(fn func(t float64, user int)) {
	for k := range c.seq.Activities {
		a := &c.seq.Activities[k]
		fn(a.Time, int(a.User))
	}
}

// forEach hands over the whole sequence as one window: off = 0, no halo, the
// full chunk grid.
func (c *memCorpus) forEach(_ float64, fn func(win []timeline.Activity, off int, chunks []parallel.Range) error) error {
	return fn(c.seq.Activities, 0, parallel.Chunks(c.seq.Len(), estepChunkSize))
}

func (c *memCorpus) buildConformity(forest *branching.Forest, opts conformity.Options) (*conformity.Computer, error) {
	return conformity.New(c.seq, forest, opts)
}

func (c *memCorpus) fingerprint() string { return sequenceFingerprint(c.train) }
