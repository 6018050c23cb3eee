// Command perfbench is the repository's end-to-end benchmark. One process
// runs one workload on its inputs (fixed corpora; the serve workloads'
// requests and arrivals come from -seed), checks the program's outputs, and prints every metric by name with its unit; the last line of
// standard output is a JSON object with the keys correct, attempted, failed
// and metrics.
//
//	bash perfbench/run.sh --workload fit-inmem --seed 7 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// observer attached. With --trace 1 the same workload runs again with the
// fit's metrics registry and observer attached and with direct calls into
// each layer, and the metrics are the per-layer ones. See README.md beside
// this file for the workloads, the metric definitions and the layer map.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"chassis/internal/obs"
)

// metricDef declares one reported metric. The two lists below are the
// benchmark's contract and must match BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"fit_s", "s"},
	{"peak_rss_bytes", "bytes"},
	{"p50_ms.low", "ms"},
	{"p95_ms.low", "ms"},
	{"p50_ms.high", "ms"},
	{"p95_ms.high", "ms"},
	{"max_rate_rps", "1/s"},
	{"recovery_s", "s"},
}

var perLayer = []metricDef{
	{"core.mstep_s", "s"},
	{"core.kernels_s", "s"},
	{"core.estep_s", "s"},
	{"core.loglik_s", "s"},
	{"core.other_s", "s"},
	{"core.iters", "count"},
	{"core.mstep_dims", "count"},
	{"core.estep_events", "count"},
	{"core.inferforest_s.w1", "s"},
	{"core.inferforest_s.wN", "s"},
	{"core.heldout_s", "s"},
	{"core.alloc_bytes", "bytes"},
	{"trace.fit_s", "s"},
	{"trace.overhead_s", "s"},
	{"conformity.build_s", "s"},
	{"conformity.accum_s", "s"},
	{"conformity.finalize_s", "s"},
	{"conformity.active_pairs", "count"},
	{"conformity.retained_bytes", "bytes"},
	{"hawkes.event_logint_s", "s"},
	{"hawkes.history_state_s", "s"},
	{"dataio.load_s", "s"},
	{"colstore.scan_s", "s"},
	{"colstore.events_per_s", "1/s"},
	{"predict.next_ms", "ms"},
	{"predict.counts_ms", "ms"},
	{"predict.influence_ms", "ms"},
	{"predict.encode_ms", "ms"},
	{"serve.histcache.hit_ratio", "ratio"},
	{"serve.dispatch.mean_batch", "count"},
	{"serve.dispatch.rejected", "count"},
	{"serve.server_ms.next", "ms"},
	{"serve.server_ms.counts", "ms"},
	{"serve.server_ms.influence", "ms"},
	{"serve.server_ms.ingest", "ms"},
	{"ingest.append_ms", "ms"},
	{"ingest.rebuilds", "count"},
	{"wal.fsyncs_per_append", "ratio"},
	{"wal.durable_ms", "ms"},
	{"wal.replay_s", "s"},
	{"wal.replayed_records", "count"},
}

// run is what one workload run hands back to main.
type run struct {
	attempted, failed int
	// values holds the reported metrics by name (end-to-end or per-layer,
	// depending on the mode).
	values map[string]float64
	// bypassed names the per-layer metrics this workload does not reach,
	// with the reason; they are reported as 0.
	bypassed map[string]string
	// checks lists every output check made, and problems the ones that
	// failed. Any problem makes the run incorrect.
	checks, problems []string
	// info carries diagnostic figures printed beside the metrics (generator
	// lateness, sample counts, the fitted fingerprints).
	info map[string]any
}

func newRun() *run {
	return &run{values: map[string]float64{}, bypassed: map[string]string{}, info: map[string]any{}}
}

// check records an output check and whether it held.
func (r *run) check(ok bool, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.checks = append(r.checks, msg)
	if !ok {
		r.problems = append(r.problems, msg)
	}
}

// bypass reports a per-layer metric the workload does not reach as 0.
func (r *run) bypass(reason string, names ...string) {
	for _, n := range names {
		r.values[n] = 0
		r.bypassed[n] = reason
	}
}

// params are the run's inputs, shared by every workload.
type params struct {
	seed    int64
	seconds float64
	trace   bool
	// dir is this run's private scratch directory.
	dir string
	// bin holds the built chassis-serve binary.
	bin string
}

type workload func(ctx context.Context, p params) (*run, error)

var workloads = map[string]workload{
	"fit-inmem":     runFitInmem,
	"fit-sharded":   runFitSharded,
	"serve-predict": runServePredict,
	"serve-ingest":  runServeIngest,
}

func main() {
	name := flag.String("workload", "", "workload to run: fit-inmem, fit-sharded, serve-predict or serve-ingest")
	seed := flag.Int64("seed", 1, "seed of the serve workloads' requests and arrivals (the fits' inputs are fixed)")
	seconds := flag.Float64("seconds", 10, "measuring time of one run")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
	work := flag.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for generated inputs")
	bin := flag.String("bin", filepath.Join(".bench_build", "bin"), "directory holding the built chassis-serve binary")
	record := flag.Bool("record-fingerprints", false, "instead of a run, fit every workload's model and rewrite perfbench/fingerprints.json (run from the repository root)")
	flag.Parse()
	if *record {
		if err := recordFingerprints(context.Background(), *work, filepath.Join("perfbench", "fingerprints.json")); err != nil {
			fail(err)
		}
		return
	}
	wl, ok := workloads[*name]
	if !ok {
		fail(fmt.Errorf("unknown -workload %q", *name))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fail(errors.New("-seconds must be positive and -trace 0 or 1"))
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fail(err)
	}
	p := params{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: dir, bin: *bin}
	r, err := wl(context.Background(), p)
	os.RemoveAll(dir)
	if err != nil {
		fail(fmt.Errorf("%s: %w", *name, err))
	}
	defs := endToEnd
	if p.trace {
		defs = perLayer
	}
	if err := report(os.Stdout, *name, p, r, defs); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// report prints one line per metric, a JSON line of run context, and last
// the result object. A declared metric the workload did not produce is a
// bug in the benchmark, reported as an error rather than a result.
func report(f *os.File, workload string, p params, r *run, defs []metricDef) error {
	metrics := map[string]any{}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return fmt.Errorf("workload %s did not report metric %s", workload, d.name)
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
		note := ""
		if why, ok := r.bypassed[d.name]; ok {
			note = "  (bypassed: " + why + ")"
		}
		fmt.Fprintf(f, "%-28s %16.6g %s%s\n", d.name, v, d.unit, note)
	}
	share := 0.0
	if r.attempted > 0 {
		share = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(f, "%-28s %16.6g %s\n", "failed_share", share, "ratio")
	for _, c := range r.checks {
		fmt.Fprintln(f, "check:", c)
	}
	for _, c := range r.problems {
		fmt.Fprintln(f, "FAILED check:", c)
	}
	ctxLine, err := json.Marshal(map[string]any{
		"workload": workload, "seed": p.seed, "seconds": p.seconds, "trace": p.trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit(), "failed_share": share,
		"bypassed": r.bypassed, "info": r.info,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(f, string(ctxLine))
	last, err := json.Marshal(map[string]any{
		"correct": len(r.problems) == 0, "attempted": r.attempted,
		"failed": r.failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(f, string(last))
	return nil
}

// commit names the source revision the binary was built from, when the
// build could see version control.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown (built outside version control)"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// peakRSS is this process's resident-set high-water mark.
func peakRSS() (float64, error) {
	peak, ok := obs.PeakRSSBytes()
	if !ok {
		return 0, errors.New("the platform cannot report peak RSS")
	}
	return float64(peak), nil
}

// median returns the middle of xs (mean of the two middles for even n).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// p95 is the nearest-rank 95th percentile: the smallest sample with at
// least 95% of the samples at or below it. A serve rate has at least 200
// samples, so ten or more lie beyond it; below 20 samples (the fits) it is
// the largest.
func p95(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	// The epsilon absorbs 0.95·n landing a hair above an integer.
	return s[int(math.Ceil(0.95*float64(n)-1e-9))-1]
}

// since is time.Since in seconds.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
