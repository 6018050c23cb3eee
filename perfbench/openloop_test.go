package main

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func serveWith(t *testing.T, h http.HandlerFunc) *loader {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	l := newLoader(srv.URL, 1)
	t.Cleanup(l.close)
	return l
}

func constTarget() target { return target{path: "/", body: []byte("{}")} }

// A handler that stalls once delays every arrival queued behind it. Timed
// from the due time, the stall shows on the queued requests too, not only
// on the one that hit it.
func TestStallRaisesDueTimeLatency(t *testing.T) {
	const stall = 300 * time.Millisecond
	var calls atomic.Int64
	l := serveWith(t, func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
	})
	// 30 arrivals at 200/s all fall inside the stall's shadow.
	s := l.step(context.Background(), 200, 30, rand.New(rand.NewSource(1)), constTarget, nil)
	if s.Failed != 0 {
		t.Fatalf("failed = %d, want 0", s.Failed)
	}
	if s.P50MS < 50 {
		t.Errorf("p50 = %.1f ms: the requests queued behind a %v stall must carry its wait", s.P50MS, stall)
	}
	if s.meets(50) {
		t.Errorf("a step whose median waits %.1f ms met a 50 ms limit", s.P50MS)
	}

	quick := serveWith(t, func(http.ResponseWriter, *http.Request) {})
	q := quick.step(context.Background(), 200, 30, rand.New(rand.NewSource(1)), constTarget, nil)
	if q.P50MS >= s.P50MS {
		t.Errorf("p50 without a stall %.1f ms, with one %.1f ms: the stall must raise it", q.P50MS, s.P50MS)
	}
}

// A 429 is a failed request: it is counted, its latency is left out of the
// quantiles, and a step with one cannot meet any limit.
func TestRefusedRequestsCountAsFailed(t *testing.T) {
	var calls atomic.Int64
	l := serveWith(t, func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1)%3 == 0 {
			w.WriteHeader(http.StatusTooManyRequests)
		}
	})
	var seen atomic.Int64
	s := l.step(context.Background(), 500, 30, rand.New(rand.NewSource(2)), constTarget,
		func(_ target, o outcome) {
			if o.status == http.StatusTooManyRequests && !o.ok() {
				seen.Add(1)
			}
		})
	if s.Failed != 10 || seen.Load() != 10 {
		t.Fatalf("failed = %d, done saw %d refusals; want 10 of 30", s.Failed, seen.Load())
	}
	if s.meets(1e9) {
		t.Error("a step with refused requests met the latency limit")
	}
}

func TestP95NearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i)
	}
	if got := p95(xs); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190 (ten samples beyond)", got)
	}
	if got := p95(xs[190:]); got != 10 {
		t.Errorf("p95 of 1..10 = %v, want the maximum", got)
	}
}

func TestLadderBisection(t *testing.T) {
	l := ladder{base: 10, factor: 2, rungs: 8}
	var probed []int
	got := l.maxRate(1, 8, func(k int) bool {
		probed = append(probed, k)
		return k <= 5
	})
	if got != 320 {
		t.Errorf("max rate = %v, want rung 5 (320)", got)
	}
	if len(probed) > 3 {
		t.Errorf("bisection probed %v, want at most 3 rungs", probed)
	}
}
