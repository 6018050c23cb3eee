package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"chassis/internal/core"
	"chassis/internal/dataio"
	"chassis/internal/serve"
	"chassis/internal/timeline"
)

// server is one chassis-serve child process.
type server struct {
	cmd  *exec.Cmd
	base string
	// log keeps the process's standard error for error messages.
	mu  sync.Mutex
	log bytes.Buffer
	// exited is closed once the process has been waited for.
	exited chan struct{}
}

// startServer launches chassis-serve with args (plus a free local port)
// and returns once /readyz answers 200, with the seconds that took.
func startServer(ctx context.Context, bin string, args []string) (*server, float64, error) {
	args = append([]string{"-addr", "127.0.0.1:0", "-reload-poll", "0"}, args...)
	cmd := exec.Command(filepath.Join(bin, "chassis-serve"), args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	s := &server{cmd: cmd, exited: make(chan struct{})}
	t := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting chassis-serve: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			s.log.WriteString(line + "\n")
			s.mu.Unlock()
			if i := strings.Index(line, "serving on http://"); i >= 0 && !sent {
				a := line[i+len("serving on http://"):]
				if j := strings.IndexByte(a, ' '); j >= 0 {
					a = a[:j]
				}
				addr <- a
				sent = true
			}
		}
		cmd.Wait()
		close(s.exited)
	}()
	deadline := time.After(60 * time.Second)
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.exited:
		return nil, 0, fmt.Errorf("chassis-serve exited during start-up:\n%s", s.stderr())
	case <-deadline:
		s.kill()
		return nil, 0, errors.New("chassis-serve did not report its address within 60s")
	}
	client := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := client.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, since(t), nil
			}
		}
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("chassis-serve exited before ready:\n%s", s.stderr())
		case <-deadline:
			s.kill()
			return nil, 0, errors.New("chassis-serve not ready within 60s")
		case <-ctx.Done():
			s.kill()
			return nil, 0, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

func (s *server) stderr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.String()
}

// kill sends SIGKILL and waits for the process to be reaped.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.exited
}

// stop drains the server with SIGTERM and waits; a server that does not
// exit within 30s is killed.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(30 * time.Second):
		s.kill()
	}
}

// scrape reads /metrics into a map of Prometheus sample names to values.
func (s *server) scrape() (map[string]float64, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// serveModel is what both serve workloads serve: CHASSIS-L with the
// parametric exponential kernel, fitted on the SF corpus's training split.
type serveModel struct {
	seq       *timeline.Sequence
	model     *core.Model
	dataPath  string
	modelPath string
}

// serveFits is how many times the served model is fitted at GOMAXPROCS
// workers; its fit takes a third of a second, so one sample is at the
// mercy of the machine's other tenants.
const serveFits = 5

func serveModelConfig(workers int) core.Config {
	return core.Config{Variant: core.VariantL, EMIters: inmemEMIters, Seed: fitSeed, ExpKernel: true,
		UseObservedTrees: true, Workers: workers}
}

// prepareServeModel generates the corpus, fits the served model (fit_s)
// at GOMAXPROCS and again at one worker (all must give one fingerprint),
// and writes the model and data files the server loads. In a traced run
// it also fills the core.* metrics from a third, traced fit.
func prepareServeModel(ctx context.Context, p params, name string, r *run) (*serveModel, error) {
	dataPath, err := writeSFCorpus(p.dir)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	ds, err := dataio.LoadDataset(dataPath)
	if err != nil {
		return nil, err
	}
	load := since(t)
	train, test, err := ds.Seq.Split(splitFrac)
	if err != nil {
		return nil, err
	}
	sm := &serveModel{seq: ds.Seq, dataPath: dataPath,
		modelPath: filepath.Join(p.dir, "model.json")}
	nproc := runtime.GOMAXPROCS(0)
	fit := func(ctx context.Context, c core.Config, opts ...core.Option) (*core.Model, float64, error) {
		t := time.Now()
		m, err := core.FitContext(ctx, train, c, opts...)
		return m, since(t), err
	}
	// fit_s is the median of serveFits fits at GOMAXPROCS workers; one
	// more at one worker checks the fingerprint across worker counts.
	var m *core.Model
	var times []float64
	fps := map[string]bool{}
	for i := 0; i <= serveFits; i++ {
		workers := nproc
		if i == serveFits {
			workers = 1
		}
		fm, secs, err := fit(ctx, serveModelConfig(workers))
		if err != nil {
			return nil, fmt.Errorf("fitting the served model at %d workers: %w", workers, err)
		}
		fps[fm.Fingerprint()] = true
		if i == 0 {
			m = fm
		}
		if workers == nproc {
			times = append(times, secs)
		}
	}
	r.attempted += serveFits + 1
	fitS := median(times)
	r.values["fit_s"] = fitS
	fp := m.Fingerprint()
	r.check(len(fps) == 1, "%s: %d served-model fits at 1 and %d workers give one fingerprint, got %d", name, serveFits+1, nproc, len(fps))
	r.info["fingerprint"] = fp
	checkRecorded(r, "serve", fp)
	sm.model = m
	f, err := os.Create(sm.modelPath)
	if err != nil {
		return nil, err
	}
	if err := m.Save(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	if p.trace {
		r.values["dataio.load_s"] = load
		r.values["core.heldout_s"] = 0
		w := fitWorkload{name: name, cfg: serveModelConfig(nproc), fit: fit}
		tm, err := tracedFit(ctx, w, r, fitS)
		if err != nil {
			return nil, err
		}
		h := time.Now()
		if _, err := tm.HeldOutLogLikelihood(test); err != nil {
			return nil, fmt.Errorf("held-out LL: %w", err)
		}
		r.values["core.heldout_s"] = since(h)
		if err := probeForest(tm, train, r); err != nil {
			return nil, err
		}
		if err := probeConformity(train, tm.Forest, r); err != nil {
			return nil, err
		}
		probeLogIntensities(tm, train, r)
		r.bypass("a serve workload fits in memory and never opens a colstore file",
			"conformity.accum_s", "conformity.finalize_s", "colstore.scan_s", "colstore.events_per_s")
	}
	return sm, nil
}

func (sm *serveModel) serverArgs() []string {
	return []string{"-model", sm.modelPath, "-data", sm.dataPath, "-split", strconv.FormatFloat(splitFrac, 'g', -1, 64)}
}

// probeBodies fetches every probe one at a time and returns the bodies.
func probeBodies(ctx context.Context, l *loader, probes []target) ([][]byte, error) {
	out := make([][]byte, len(probes))
	for i, t := range probes {
		o := l.do(ctx, t)
		if !o.ok() {
			return nil, fmt.Errorf("probe %s: status %d, err %v: %s", t.path, o.status, o.err, o.body)
		}
		out[i] = o.body
	}
	return out, nil
}

func sameBodies(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// setupServers measures setup_s: it starts the server setupServerRepeats
// times with args(i), keeps the last one running and returns it.
func setupServers(ctx context.Context, p params, args func(i int) []string, r *run) (*server, error) {
	var times []float64
	var s *server
	for i := 0; i < setupServerRepeats; i++ {
		srv, secs, err := startServer(ctx, p.bin, args(i))
		if err != nil {
			return nil, err
		}
		times = append(times, secs)
		if i < setupServerRepeats-1 {
			srv.kill()
		} else {
			s = srv
		}
	}
	r.values["setup_s"] = median(times)
	return s, nil
}

const setupServerRepeats = 7

// loadPlan fixes one serve workload's rates, in requests per second, and
// its p95 latency limit. The low and high rates are rungs of the ladder.
type loadPlan struct {
	low, high   float64
	rungsToHigh int
	ladder      ladder
	limitMS     float64
}

func newPlan(base, factor float64, highRung, rungs int, limitMS float64) loadPlan {
	l := ladder{base: base, factor: factor, rungs: rungs}
	return loadPlan{low: base, high: l.rate(highRung), rungsToHigh: highRung, ladder: l, limitMS: limitMS}
}

// The low and high rates are each offered as subSteps interleaved
// sub-steps of perSubStep arrivals (low, high, low, high, ...), and each
// rate's latencies are pooled: spreading a rate's samples over the run
// keeps a burst of contention on the machine from landing on one rate
// only. A ladder step lasts ladderSeconds and has at least 200 arrivals,
// long enough for an overloaded rate to build a visible backlog.
const (
	subSteps      = 4
	perSubStep    = 100
	ladderSeconds = 2.0
	minArrivals   = 200
)

// recoverServer kills s with SIGKILL and restarts it on the same arguments
// `restarts` times, recording the median time to /readyz 200 as
// recovery_s. It returns the last restarted server, still running.
func recoverServer(ctx context.Context, p params, s *server, args []string, restarts int, r *run) (*server, error) {
	var times []float64
	for i := 0; i < restarts; i++ {
		s.kill()
		next, secs, err := startServer(ctx, p.bin, args)
		if err != nil {
			return nil, err
		}
		times = append(times, secs)
		s = next
	}
	r.values["recovery_s"] = median(times)
	return s, nil
}

// loadRun runs one serve workload's load steps against a server and keeps
// the record: every step, the arrivals attempted and failed, and the
// generator-schedule checks.
type loadRun struct {
	plan  loadPlan
	rng   *rand.Rand
	next  func() target
	done  func(target, outcome)
	r     *run
	steps []stepResult
}

func newLoadRun(p params, plan loadPlan, next func() target, done func(target, outcome), r *run) *loadRun {
	r.info["limit_ms"] = plan.limitMS
	return &loadRun{plan: plan, rng: rand.New(rand.NewSource(p.seed)), next: next, done: done, r: r}
}

func (d *loadRun) offer(ctx context.Context, l *loader, rate float64, n int) stepResult {
	s := l.step(ctx, rate, n, d.rng, d.next, d.done)
	d.steps = append(d.steps, s)
	d.r.info["steps"] = d.steps
	d.r.attempted += s.Sent
	d.r.failed += s.Failed
	d.r.check(!s.Behind, "load generator kept its schedule at %.1f req/s (lateness max %.2f ms, mean %.2f ms)", rate, s.MaxLateMS, s.MeanLateMS)
	return s
}

// latency offers the low and high rates and fills p50/p95 at each. It
// returns the pooled steps.
func (d *loadRun) latency(ctx context.Context, l *loader) (lo, hi stepResult) {
	var lows, highs []stepResult
	for i := 0; i < subSteps; i++ {
		lows = append(lows, d.offer(ctx, l, d.plan.low, perSubStep))
		highs = append(highs, d.offer(ctx, l, d.plan.high, perSubStep))
	}
	lo, hi = pool(lows), pool(highs)
	d.r.values["p50_ms.low"], d.r.values["p95_ms.low"] = lo.P50MS, lo.P95MS
	d.r.values["p50_ms.high"], d.r.values["p95_ms.high"] = hi.P50MS, hi.P95MS
	return lo, hi
}

// maxRate bisects the ladder between the highest rung known to pass (high,
// or low when high failed) and the lowest known to fail, and fills
// max_rate_rps.
func (d *loadRun) maxRate(ctx context.Context, l *loader, lo, hi stepResult) error {
	pass, fail := -1, d.plan.ladder.rungs
	switch {
	case hi.meets(d.plan.limitMS):
		pass = d.plan.rungsToHigh
	case lo.meets(d.plan.limitMS):
		pass, fail = 0, d.plan.rungsToHigh
	default:
		fail = 0
	}
	max := d.plan.ladder.maxRate(pass, fail, func(k int) bool {
		rate := d.plan.ladder.rate(k)
		n := int(rate * ladderSeconds)
		if n < minArrivals {
			n = minArrivals
		}
		return d.offer(ctx, l, rate, n).meets(d.plan.limitMS)
	})
	if max == 0 {
		return fmt.Errorf("no rung met the %.0f ms p95 limit, not even %.1f req/s", d.plan.limitMS, d.plan.low)
	}
	d.r.values["max_rate_rps"] = max
	return nil
}

// counters sums /metrics deltas over the measured intervals.
type counters map[string]float64

func (c counters) add(a, b map[string]float64) {
	for k, v := range b {
		c[k] += v - a[k]
	}
}

func (c counters) get(name string) float64 { return c["chassis_"+name] }

// serverMetrics fills the serve.* per-layer metrics from the summed
// deltas.
func serverMetrics(c counters, r *run, endpoints ...string) {
	hits, misses, ext := c.get("serve_histcache_hits"), c.get("serve_histcache_misses"), c.get("serve_histcache_extends")
	if hits+misses+ext > 0 {
		r.values["serve.histcache.hit_ratio"] = hits / (hits + misses + ext)
	}
	if n := c.get("serve_dispatch_batches"); n > 0 {
		r.values["serve.dispatch.mean_batch"] = c.get("serve_dispatch_batched_requests") / n
	}
	r.values["serve.dispatch.rejected"] = c.get("serve_dispatch_rejected_full") + c.get("serve_dispatch_rejected_draining")
	for _, ep := range endpoints {
		if n := c.get("serve_" + ep + "_latency_count"); n > 0 {
			r.values["serve.server_ms."+ep] = 1000 * c.get("serve_"+ep+"_latency_seconds_total") / n
		}
	}
}

// paths of the serve API.
const (
	pathNext      = "/v1/predict/next"
	pathCounts    = "/v1/predict/counts"
	pathInfluence = "/v1/influence"
	pathIngest    = "/v1/ingest"
)

// peakFromScrape reads the server's own peak-RSS gauge.
func peakFromScrape(m map[string]float64) (float64, error) {
	v, ok := m["chassis_mem_peak_rss_bytes"]
	if !ok || v <= 0 {
		return 0, errors.New("server /metrics has no mem_peak_rss_bytes")
	}
	return v, nil
}

// activityJSON converts corpus activities to the wire form.
func activityJSON(acts []timeline.Activity) []serve.ActivityJSON {
	out := make([]serve.ActivityJSON, len(acts))
	for i, a := range acts {
		out[i] = serve.ActivityJSON{User: int(a.User), Time: a.Time, Kind: a.Kind.String(), Polarity: a.Polarity}
	}
	return out
}

// mustJSON marshals a request body built from the serve package's own
// wire types, which always marshal.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
