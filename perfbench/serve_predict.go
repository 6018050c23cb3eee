package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"chassis/internal/hawkes"
	"chassis/internal/predict"
	"chassis/internal/serve"
	"chassis/internal/timeline"
)

// serve-predict's request mix: predictRequests requests over
// predictHistories history prefixes whose lengths are evenly spaced from
// half of predictMaxHist to predictMaxHist, with exactly 60% next, 20%
// counts and 20% influence. The seed orders the requests and seeds the
// Monte-Carlo draws; the mix and the prefix lengths are fixed, so the
// work per request does not depend on the seed.
const (
	predictRequests  = 250
	predictHistories = 10
	predictMaxHist   = 1024
	predictDraws     = 10
)

// predictPlan is serve-predict's fixed load: rungs 1.07× apart from 30
// req/s, low is rung 0 and high rung 7 (about 48 req/s). On a 2-CPU
// machine these are about a fifth and a third of capacity: queueing near
// saturation would amplify every slowdown the machine's other tenants
// cause, and the ladder measures saturation anyway.
var predictPlan = newPlan(30, 1.07, 7, 32, 100)

// predictReq is one serve-predict request with its decoded form, which
// the traced run replays against the predict layer directly.
type predictReq struct {
	target
	hist *timeline.Sequence
	req  serve.PredictRequest
}

func predictCorpus(seq *timeline.Sequence, seed int64) ([]predictReq, error) {
	if seq.Len() < predictMaxHist {
		return nil, fmt.Errorf("corpus has %d events, the longest history needs %d", seq.Len(), predictMaxHist)
	}
	rng := rand.New(rand.NewSource(seed))
	paths := make([]string, 0, predictRequests)
	for i := 0; i < predictRequests; i++ {
		switch {
		case i < predictRequests*6/10:
			paths = append(paths, pathNext)
		case i < predictRequests*8/10:
			paths = append(paths, pathCounts)
		default:
			paths = append(paths, pathInfluence)
		}
	}
	rng.Shuffle(len(paths), func(i, j int) { paths[i], paths[j] = paths[j], paths[i] })
	out := make([]predictReq, predictRequests)
	for i, path := range paths {
		// Histories cycle, so each endpoint sees every prefix length.
		h := i % predictHistories
		n := predictMaxHist/2 + h*(predictMaxHist/2)/(predictHistories-1)
		hist := &timeline.Sequence{M: seq.M, Horizon: seq.Activities[n-1].Time, Activities: seq.Activities[:n]}
		req := serve.PredictRequest{History: activityJSON(hist.Activities), Horizon: hist.Horizon}
		switch path {
		case pathNext:
			req.Draws, req.Seed, req.Lookahead = predictDraws, seed, 10
		case pathCounts:
			req.Draws, req.Seed, req.Window = predictDraws, seed, 10
		}
		out[i] = predictReq{target: target{path: path, body: mustJSON(req)}, hist: hist, req: req}
	}
	return out, nil
}

func runServePredict(ctx context.Context, p params) (*run, error) {
	r := newRun()
	sm, err := prepareServeModel(ctx, p, "serve-predict", r)
	if err != nil {
		return nil, err
	}
	reqs, err := predictCorpus(sm.seq, p.seed)
	if err != nil {
		return nil, err
	}
	// Probes: the first two requests to each endpoint. Warm-up: one
	// request on each history, so the history cache is filled before
	// anything is timed.
	var probes, warm []target
	perPath := map[string]int{}
	for i, q := range reqs {
		if perPath[q.path] < 2 {
			perPath[q.path]++
			probes = append(probes, q.target)
		}
		if i < predictHistories {
			warm = append(warm, q.target)
		}
	}

	s, err := setupServers(ctx, p, func(int) []string { return sm.serverArgs() }, r)
	if err != nil {
		return nil, err
	}
	defer s.kill()
	l := newLoader(s.base, runtime.GOMAXPROCS(0))
	defer l.close()
	before, err := probeBodies(ctx, l, probes)
	if err != nil {
		return nil, err
	}
	if _, err := probeBodies(ctx, l, warm); err != nil {
		return nil, err
	}
	r.attempted += len(probes) + len(warm)

	m0, err := s.scrape()
	if err != nil {
		return nil, err
	}
	i := 0
	next := func() target {
		i++
		return reqs[i%len(reqs)].target
	}
	d := newLoadRun(p, predictPlan, next, nil, r)
	lo, hi := d.latency(ctx, l)
	if err := d.maxRate(ctx, l, lo, hi); err != nil {
		return nil, err
	}
	m1, err := s.scrape()
	if err != nil {
		return nil, err
	}
	after, err := probeBodies(ctx, l, probes)
	if err != nil {
		return nil, err
	}
	r.check(sameBodies(before, after), "serve-predict: %d probe bodies byte-equal before and after the load", len(probes))
	if r.values["peak_rss_bytes"], err = peakFromScrape(m1); err != nil {
		return nil, err
	}
	c := counters{}
	c.add(m0, m1)
	serverMetrics(c, r, "next", "counts", "influence")

	// recovery_s: kill -9, then restart on the same files.
	s2, err := recoverServer(ctx, p, s, sm.serverArgs(), 7, r)
	if err != nil {
		return nil, err
	}
	defer s2.kill()
	l2 := newLoader(s2.base, runtime.GOMAXPROCS(0))
	defer l2.close()
	restarted, err := probeBodies(ctx, l2, probes)
	if err != nil {
		return nil, err
	}
	r.attempted += 2 * len(probes)
	r.check(sameBodies(before, restarted), "serve-predict: probe bodies byte-equal after kill -9 and restart")
	s2.stop()

	if p.trace {
		if err := probePredict(sm, reqs, r); err != nil {
			return nil, err
		}
		r.bypass("serve-predict sends no ingest traffic and runs without a WAL",
			"serve.server_ms.ingest", "ingest.append_ms", "ingest.rebuilds",
			"wal.fsyncs_per_append", "wal.durable_ms", "wal.replay_s", "wal.replayed_records")
	}
	return r, nil
}

// probePredict times the hawkes history-state rebuild and the predict
// layer by direct calls on the workload's own requests. Each prediction
// gets its history state prebuilt, as a history-cache hit would, so
// predict.* and hawkes.history_state_s do not overlap.
func probePredict(sm *serveModel, reqs []predictReq, r *run) error {
	proc := sm.model.Process()
	sum := map[string]time.Duration{}
	cnt := map[string]int{}
	add := func(k string, t time.Time) {
		sum[k] += time.Since(t)
		cnt[k]++
	}
	states := map[int]*hawkes.ContState{}
	for _, q := range reqs {
		st, ok := states[q.hist.Len()]
		if !ok {
			t := time.Now()
			st = proc.HistoryState(q.hist)
			add("state", t)
			states[q.hist.Len()] = st
		}
		opts := predict.Options{Draws: q.req.Draws, Seed: q.req.Seed, HistState: st}
		t := time.Now()
		var err error
		switch q.path {
		case pathNext:
			opts.Lookahead = q.req.Lookahead
			var n predict.NextActivity
			if n, err = predict.Next(proc, q.hist, opts); err == nil {
				add("next", t)
				t = time.Now()
				_, err = predict.EncodeNext(n)
			}
		case pathCounts:
			opts.Window = q.req.Window
			var fc predict.CountForecast
			if fc, err = predict.Counts(proc, q.hist, opts); err == nil {
				add("counts", t)
				t = time.Now()
				_, err = predict.EncodeCounts(fc)
			}
		default:
			var sc predict.InfluenceScores
			if sc, err = predict.Influence(proc, q.hist, predict.Options{}); err == nil {
				add("influence", t)
				t = time.Now()
				_, err = predict.EncodeInfluence(sc)
			}
		}
		if err != nil {
			return fmt.Errorf("predict %s: %w", q.path, err)
		}
		add("encode", t)
	}
	meanMS := func(k string) float64 { return float64(sum[k]) / float64(cnt[k]) / float64(time.Millisecond) }
	r.values["hawkes.history_state_s"] = meanMS("state") / 1000
	r.values["predict.next_ms"] = meanMS("next")
	r.values["predict.counts_ms"] = meanMS("counts")
	r.values["predict.influence_ms"] = meanMS("influence")
	r.values["predict.encode_ms"] = meanMS("encode")
	return nil
}
