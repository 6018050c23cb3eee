package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"chassis/internal/ingest"
	"chassis/internal/serve"
	"chassis/internal/timeline"
	"chassis/internal/wal"
)

// serve-ingest's traffic: live cascades preloaded through the server, then
// a mix of 16-event appends (three quarters) and cascade_id predictions
// (one quarter, split 60/20/20 across next, counts and influence). Probe
// cascades are preloaded like the rest but never touched by the load, so
// their answers must not change.
const (
	ingestCascades   = 100
	probeCascades    = 4
	preloadEvents    = 256
	preloadBatch     = 128
	appendEvents     = 16
	ingestShare      = 0.75
	cascadeEventSpan = 1536 // preload plus the most the load can append
)

// ingestPlan is serve-ingest's fixed load: rungs 1.07× apart from 40 req/s,
// low is rung 0 and high rung 9 (about 74 req/s).
var ingestPlan = newPlan(40, 1.07, 9, 40, 100)

// liveCascade is one cascade's source events and how far it has been fed.
type liveCascade struct {
	id     string
	events []timeline.Activity
	next   int
	// busy is set while an append to the cascade is in flight.
	busy atomic.Bool
}

func (c *liveCascade) batch(n int) (serve.IngestRequest, bool) {
	if c.next+n > len(c.events) {
		return serve.IngestRequest{}, false
	}
	req := serve.IngestRequest{CascadeID: c.id, Events: activityJSON(c.events[c.next : c.next+n])}
	c.next += n
	return req, true
}

// runServeIngest measures latency at the low and high rates, then kills
// the server with every append acknowledged and restarts it on the same
// WAL (recovery_s, with the replay checks), then runs the max-rate ladder
// on the recovered server. Recovery comes before the ladder so that the
// log it replays has the same size in every run.
func runServeIngest(ctx context.Context, p params) (*run, error) {
	r := newRun()
	sm, err := prepareServeModel(ctx, p, "serve-ingest", r)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.seed))
	all := sm.seq.Activities
	if len(all) < cascadeEventSpan {
		return nil, fmt.Errorf("corpus has %d events, a cascade needs %d", len(all), cascadeEventSpan)
	}
	cascades := make([]*liveCascade, ingestCascades+probeCascades)
	for i := range cascades {
		off := rng.Intn(len(all) - cascadeEventSpan + 1)
		cascades[i] = &liveCascade{id: "c" + strconv.Itoa(i), events: all[off : off+cascadeEventSpan]}
	}
	load, probeSet := cascades[:ingestCascades], cascades[ingestCascades:]

	walDir := filepath.Join(p.dir, "wal")
	args := func(dir string) []string {
		return append(sm.serverArgs(), "-wal-dir", dir, "-wal-sync", "always")
	}
	// setup_s: each start is on its own empty WAL directory; the last one
	// is the measured server.
	s, err := setupServers(ctx, p, func(i int) []string {
		if i == setupServerRepeats-1 {
			return args(walDir)
		}
		return args(filepath.Join(p.dir, "wal-setup-"+strconv.Itoa(i)))
	}, r)
	if err != nil {
		return nil, err
	}
	defer s.kill()
	nproc := runtime.GOMAXPROCS(0)
	l := newLoader(s.base, nproc)
	defer l.close()

	acked := map[string]int{}
	if err := preload(ctx, l, cascades, acked); err != nil {
		return nil, err
	}
	r.attempted += len(cascades) * preloadEvents / preloadBatch
	probes := cascadeProbes(probeSet)
	before, err := probeBodies(ctx, l, probes)
	if err != nil {
		return nil, err
	}
	r.attempted += len(probes)

	// Appends go round-robin over the load cascades and skip a cascade
	// whose previous append is still in flight: two appends to one cascade
	// racing over two connections could arrive out of order, and the
	// server rightly refuses an append that precedes the cascade's tail.
	byID := map[string]*liveCascade{}
	for _, c := range load {
		byID[c.id] = c
	}
	var mu sync.Mutex
	rr, exhausted := 0, 0
	next := func() target {
		if rng.Float64() < ingestShare {
			for k := 0; k < len(load); k++ {
				c := load[(rr+k)%len(load)]
				if c.busy.Load() {
					continue
				}
				if req, ok := c.batch(appendEvents); ok {
					rr = (rr + k + 1) % len(load)
					c.busy.Store(true)
					return target{path: pathIngest, body: mustJSON(req)}
				}
			}
			exhausted++
		}
		return cascadePredict(load[rng.Intn(len(load))].id, rng.Float64())
	}
	done := func(t target, o outcome) {
		if t.path != pathIngest {
			return
		}
		var req serve.IngestRequest
		if err := json.Unmarshal(t.body, &req); err != nil {
			panic(err) // the body was marshaled from this type above
		}
		if o.ok() {
			var resp serve.IngestResponse
			if err := json.Unmarshal(o.body, &resp); err == nil {
				mu.Lock()
				acked[resp.CascadeID] += resp.Appended
				mu.Unlock()
			}
		}
		byID[req.CascadeID].busy.Store(false)
	}
	c := counters{}
	m0, err := s.scrape()
	if err != nil {
		return nil, err
	}
	d := newLoadRun(p, ingestPlan, next, done, r)
	lo, hi := d.latency(ctx, l)
	m1, err := s.scrape()
	if err != nil {
		return nil, err
	}
	c.add(m0, m1)
	peak, err := peakFromScrape(m1)
	if err != nil {
		return nil, err
	}

	// recovery_s: kill -9 with every append acknowledged, restart on the
	// same WAL directory, and time until /readyz answers 200.
	// Each restart replays the whole log, about a second.
	s2, err := recoverServer(ctx, p, s, args(walDir), 5, r)
	if err != nil {
		return nil, err
	}
	defer s2.kill()
	l2 := newLoader(s2.base, nproc)
	defer l2.close()
	m2, err := s2.scrape()
	if err != nil {
		return nil, err
	}
	restarted, err := probeBodies(ctx, l2, probes)
	if err != nil {
		return nil, err
	}
	r.attempted += len(probes)
	r.check(sameBodies(before, restarted), "serve-ingest: probe bodies byte-equal after kill -9 and WAL replay")
	wrong, err := checkCounts(ctx, l2, cascades, acked)
	if err != nil {
		return nil, err
	}
	r.attempted += len(cascades)
	r.check(wrong == 0, "serve-ingest: after replay all %d cascades hold exactly their acknowledged events (%d differ)", len(cascades), wrong)

	if err := d.maxRate(ctx, l2, lo, hi); err != nil {
		return nil, err
	}
	m3, err := s2.scrape()
	if err != nil {
		return nil, err
	}
	c.add(m2, m3)
	after, err := probeBodies(ctx, l2, probes)
	if err != nil {
		return nil, err
	}
	r.attempted += len(probes)
	r.check(sameBodies(before, after), "serve-ingest: %d probe bodies on untouched cascades byte-equal after the load", len(probes))
	s2.stop()
	peak2, err := peakFromScrape(m3)
	if err != nil {
		return nil, err
	}
	r.values["peak_rss_bytes"] = math.Max(peak, peak2)
	r.info["appends_redirected_to_predict"] = exhausted
	r.info["replayed_records"] = m2["chassis_wal_replayed_records"]
	serverMetrics(c, r, "next", "counts", "influence", "ingest")

	if p.trace {
		r.values["wal.fsyncs_per_append"] = c.get("wal_fsyncs") / c.get("wal_appends")
		r.values["wal.replay_s"] = m2["chassis_wal_replay_seconds"]
		r.values["wal.replayed_records"] = m2["chassis_wal_replayed_records"]
		r.values["ingest.rebuilds"] = c.get("ingest_rebuilds")
		if err := probeWAL(p.dir, r); err != nil {
			return nil, err
		}
		if err := probeIngest(sm, cascades, r); err != nil {
			return nil, err
		}
		r.bypass("cascade_id predictions read the ingest store, not the history cache", "serve.histcache.hit_ratio")
		r.bypass("the predict layer is measured on serve-predict's request bodies",
			"predict.next_ms", "predict.counts_ms", "predict.influence_ms", "predict.encode_ms", "hawkes.history_state_s")
	}
	return r, nil
}

// preload appends every cascade's first preloadEvents events, in batches,
// over the loader's connections (one goroutine per connection, each
// feeding its own cascades in order).
func preload(ctx context.Context, l *loader, cascades []*liveCascade, acked map[string]int) error {
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, l.conns)
	for w := 0; w < l.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(cascades); i += l.conns {
				c := cascades[i]
				for n := 0; n < preloadEvents; n += preloadBatch {
					req, _ := c.batch(preloadBatch)
					o := l.do(ctx, target{path: pathIngest, body: mustJSON(req)})
					if !o.ok() {
						errs[w] = fmt.Errorf("preloading %s: status %d, err %v: %s", c.id, o.status, o.err, o.body)
						return
					}
					mu.Lock()
					acked[c.id] += preloadBatch
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// cascadePredict is a cascade_id prediction: next, counts or influence by
// where u falls.
func cascadePredict(id string, u float64) target {
	req := serve.PredictRequest{CascadeID: id, Draws: predictDraws, Seed: 7}
	switch {
	case u < 0.6:
		req.Lookahead = 10
		return target{path: pathNext, body: mustJSON(req)}
	case u < 0.8:
		req.Window = 10
		return target{path: pathCounts, body: mustJSON(req)}
	}
	req.Draws, req.Seed = 0, 0
	return target{path: pathInfluence, body: mustJSON(req)}
}

func cascadeProbes(cs []*liveCascade) []target {
	var out []target
	for _, c := range cs {
		for _, u := range []float64{0, 0.7, 0.9} {
			out = append(out, cascadePredict(c.id, u))
		}
	}
	return out
}

// checkCounts asks the server how many events each cascade holds (the
// influence decomposition reports it) and counts the cascades that differ
// from the acknowledged total.
func checkCounts(ctx context.Context, l *loader, cascades []*liveCascade, acked map[string]int) (int, error) {
	wrong := 0
	for _, c := range cascades {
		o := l.do(ctx, cascadePredict(c.id, 1))
		if !o.ok() {
			return 0, fmt.Errorf("influence on %s after replay: status %d, err %v: %s", c.id, o.status, o.err, o.body)
		}
		var resp struct {
			Events int `json:"events"`
		}
		if err := json.Unmarshal(o.body, &resp); err != nil {
			return 0, err
		}
		if resp.Events != acked[c.id] {
			wrong++
		}
	}
	return wrong, nil
}

// probeWAL times durable appends on a private log in the run's directory:
// each Append of one 16-event batch is followed by its WaitDurable.
func probeWAL(dir string, r *run) error {
	w, err := wal.Open(wal.Config{Dir: filepath.Join(dir, "wal-probe"), Sync: wal.SyncAlways}, nil)
	if err != nil {
		return err
	}
	if err := w.Replay(func(*wal.Record) error { return nil }); err != nil {
		w.Close()
		return err
	}
	if err := w.Start(); err != nil {
		w.Close()
		return err
	}
	payload := mustJSON(map[string]any{"events": make([]serve.ActivityJSON, appendEvents)})
	const n = 200
	t := time.Now()
	for i := 0; i < n; i++ {
		lsn, err := w.Append("bench/v1", payload)
		if err == nil {
			err = w.WaitDurable(lsn)
		}
		if err != nil {
			w.Close()
			return fmt.Errorf("wal append: %w", err)
		}
	}
	r.values["wal.durable_ms"] = 1000 * since(t) / n
	if err := w.Close(); err != nil {
		return err
	}
	return os.RemoveAll(filepath.Join(dir, "wal-probe"))
}

// probeIngest times ingest.Store.Append in process on the workload's own
// cascades, appendEvents at a time, against the served model.
func probeIngest(sm *serveModel, cascades []*liveCascade, r *run) error {
	st := ingest.NewStore(ingest.Config{}, nil)
	proc := sm.model.Process()
	n := 0
	t := time.Now()
	for _, c := range cascades {
		for off := 0; off+appendEvents <= preloadEvents; off += appendEvents {
			batch := append([]timeline.Activity(nil), c.events[off:off+appendEvents]...)
			if _, err := st.Append(sm.model, proc, 1, c.id, batch); err != nil {
				return fmt.Errorf("ingest append: %w", err)
			}
			n++
		}
	}
	r.values["ingest.append_ms"] = 1000 * since(t) / float64(n)
	return nil
}
