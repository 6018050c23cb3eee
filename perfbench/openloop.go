package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// target is one request: an endpoint path and its JSON body.
type target struct {
	path string
	body []byte
}

// outcome is what one request came back with.
type outcome struct {
	status int
	body   []byte
	err    error
}

func (o outcome) ok() bool { return o.err == nil && o.status/100 == 2 }

// loader drives an open loop against one server: arrivals follow a Poisson
// schedule at a fixed rate whatever the server does, every arrival waits
// for one of `conns` connections (nothing is shed on the client side), and
// each request is timed from the moment it was due. A stalled server
// therefore shows as latency on every request queued behind the stall.
type loader struct {
	client *http.Client
	base   string
	conns  int
}

func newLoader(base string, conns int) *loader {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	return &loader{client: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base, conns: conns}
}

func (l *loader) close() { l.client.CloseIdleConnections() }

// do sends one request and reads the whole response.
func (l *loader) do(ctx context.Context, t target) outcome {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, l.base+t.path, bytes.NewReader(t.body))
	if err != nil {
		return outcome{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := l.client.Do(req)
	if err != nil {
		return outcome{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return outcome{status: resp.StatusCode, body: body, err: err}
}

// stepResult summarizes one fixed-rate step, or several pooled.
type stepResult struct {
	Rate   float64 `json:"rate"`
	Sent   int     `json:"sent"`
	Failed int     `json:"failed"`
	// P50MS/P95MS are the median and the nearest-rank 95th percentile of
	// the successful requests' due-time latencies.
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	// TailP50MS is the median latency of the last quarter of arrivals; a
	// queue that grows through the step shows up here first.
	TailP50MS float64 `json:"tail_p50_ms"`
	// MaxLateMS/MeanLateMS are how late the generator released arrivals
	// past their due time.
	MaxLateMS  float64 `json:"max_late_ms"`
	MeanLateMS float64 `json:"mean_late_ms"`
	// Behind marks a step whose generator fell behind its schedule, which
	// makes the step's figures invalid.
	Behind bool `json:"behind"`
	// Seconds is the step's wall time, first arrival to last completion.
	Seconds float64 `json:"seconds"`
	// Errors holds the first failure of the step, if any, for the record.
	Errors string `json:"errors,omitempty"`
	lat    []float64
}

// The generator falls behind when it releases arrivals late on average
// (its schedule slips) or any one very late. Single late releases of a few
// milliseconds are the OS scheduler sharing the CPUs with the server; they
// cost no accuracy, because latency is timed from the due time anyway.
const (
	maxMeanLateness = 5 * time.Millisecond
	maxLateness     = 100 * time.Millisecond
)

// meets reports whether the step met the latency limit: no failures, p95
// within the limit, and no growing backlog (the last quarter's median is
// also within it).
func (s stepResult) meets(limitMS float64) bool {
	return s.Failed == 0 && !s.Behind && s.P95MS <= limitMS && s.TailP50MS <= limitMS
}

// step offers n requests at rate per second. next is called once per
// arrival, in order, from the generator goroutine; done (if non-nil) is
// called once per completed request from the connection goroutines.
func (l *loader) step(ctx context.Context, rate float64, n int, rng *rand.Rand, next func() target, done func(target, outcome)) stepResult {
	type job struct {
		i   int
		due time.Time
		t   target
	}
	// One slot per arrival: the generator never blocks on a busy server.
	jobs := make(chan job, n)
	lat := make([]float64, n)
	okAt := make([]bool, n)
	var firstErr sync.Once
	var errText string
	var wg sync.WaitGroup
	for c := 0; c < l.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				o := l.do(ctx, j.t)
				lat[j.i] = float64(time.Since(j.due)) / float64(time.Millisecond)
				okAt[j.i] = o.ok()
				if !o.ok() {
					firstErr.Do(func() { errText = fmt.Sprintf("%s: status %d, err %v: %.200s", j.t.path, o.status, o.err, o.body) })
				}
				if done != nil {
					done(j.t, o)
				}
			}
		}()
	}
	start := time.Now()
	due := start
	var maxLate, sumLate time.Duration
	for i := 0; i < n; i++ {
		due = due.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late := time.Since(due)
		sumLate += late
		if late > maxLate {
			maxLate = late
		}
		jobs <- job{i: i, due: due, t: next()}
	}
	close(jobs)
	wg.Wait()

	res := stepResult{
		Rate: rate, Sent: n,
		MaxLateMS:  float64(maxLate) / float64(time.Millisecond),
		MeanLateMS: float64(sumLate) / float64(n) / float64(time.Millisecond),
		Behind:     maxLate > maxLateness || sumLate/time.Duration(n) > maxMeanLateness,
		Seconds:    since(start),
		Errors:     errText,
	}
	for i := range lat {
		if !okAt[i] {
			res.Failed++
			continue
		}
		res.lat = append(res.lat, lat[i])
	}
	res.P50MS = median(res.lat)
	res.P95MS = p95(res.lat)
	// The backlog signal counts failed arrivals too: a step with failures
	// fails its limit anyway, and the wait before a failure is real.
	res.TailP50MS = median(lat[n-n/4:])
	return res
}

// pool merges sub-steps offered at one rate: their latencies are pooled,
// their counts summed, and the backlog and schedule flags are the worst of
// them.
func pool(steps []stepResult) stepResult {
	out := stepResult{Rate: steps[0].Rate}
	for _, s := range steps {
		out.Sent += s.Sent
		out.Failed += s.Failed
		out.lat = append(out.lat, s.lat...)
		out.TailP50MS = math.Max(out.TailP50MS, s.TailP50MS)
		out.MaxLateMS = math.Max(out.MaxLateMS, s.MaxLateMS)
		out.MeanLateMS += s.MeanLateMS * float64(s.Sent)
		out.Behind = out.Behind || s.Behind
		out.Seconds += s.Seconds
		if out.Errors == "" {
			out.Errors = s.Errors
		}
	}
	out.MeanLateMS /= float64(out.Sent)
	out.P50MS = median(out.lat)
	out.P95MS = p95(out.lat)
	return out
}

// ladder is a fixed geometric rate ladder: rung k offers base·factor^k.
type ladder struct {
	base, factor float64
	rungs        int
}

func (l ladder) rate(k int) float64 { return l.base * math.Pow(l.factor, float64(k)) }

// maxRate finds the highest rung whose step meets the limit by bisection
// between a rung known to pass and one known (or assumed, past the top) to
// fail; pass is -1 when no rung is known to pass. probe runs one step at a
// rung. It returns the rung's rate, or 0 when no rung passed.
func (l ladder) maxRate(pass, fail int, probe func(k int) bool) float64 {
	for fail-pass > 1 {
		mid := (pass + fail) / 2
		if probe(mid) {
			pass = mid
		} else {
			fail = mid
		}
	}
	if pass < 0 {
		return 0
	}
	return l.rate(pass)
}
