// Command jkperf is the repository benchmark: four seeded workloads that
// drive the kernel's own packages from outside — in-kernel LRMI, a sync
// and a batched remote-kernel wire over TCP loopback, and HTTP through
// the servlet bridge onto scheduled worker processes — and report
// end-to-end metrics, or, with --trace 1, per-layer metrics named after
// the module that does the work. Traced servlet-http runs add open-loop
// figures: latency from each request's due time at fixed rates, and the
// highest rate of a fixed ladder that meets a p99 limit.
//
//	bash jkperf/run.sh --workload remote-sync --seed 7 --seconds 20 --trace 0
//
// run.sh builds the binary from source and is run from the repository
// root. Reports saved by two runs compare with
//
//	jkperf compare OLD.report.json NEW.report.json
//
// which compares times and rates only between runs whose host and path
// fingerprints match. The last line of standard output is the result
// object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": u}, ...}}
//
// Lines before it give the full report: host and path fingerprint,
// intervals, error rate, the open-loop phases and rate ladder, and span
// totals. Traced runs keep their spans in memory and write them to the
// output directory at exit.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"jkernel/internal/remote"
)

// metricSpec is one reported metric.
type metricSpec struct{ name, unit string }

// endToEnd and perLayer are the metrics of BENCHMARK.json, in its order.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"calls_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p90_us", "us"},
	{"cpu_us_per_call", "us"},
	{"allocs_per_call", "count"},
	{"max_rss_mb", "MB"},
}

var perLayer = []metricSpec{
	{"vmkit.iface_call_ns", "ns"},
	{"core.vm_lrmi_ns", "ns"},
	{"core.native_lrmi_ns", "ns"},
	{"core.proxy_gate_ns", "ns"},
	{"core.copy_ser_ns", "ns"},
	{"core.copy_fast_ns", "ns"},
	{"core.copy_bytes_per_call", "bytes"},
	{"core.mint_revoke_ns", "ns"},
	{"fastcopy.copy_ns", "ns"},
	{"seri.marshal_ns", "ns"},
	{"seri.unmarshal_ns", "ns"},
	{"seri.bytes_per_call", "bytes"},
	{"seri.allocs_per_call", "count"},
	{"remote.request_path_ns", "ns"},
	{"remote.serve_ns", "ns"},
	{"remote.reply_path_ns", "ns"},
	{"remote.ladder_residual_ns", "ns"},
	{"remote.write_syscalls_per_call", "count"},
	{"remote.read_syscalls_per_call", "count"},
	{"remote.ctxsw_per_call", "count"},
	{"remote.frames_per_call", "count"},
	{"remote.batch_occupancy_mean", "count"},
	{"remote.window_flush_ns", "ns"},
	{"remote.window_wait_ns", "ns"},
	{"remote.churn_cycle_ns", "ns"},
	{"httpd.serve_ns.native", "ns"},
	{"httpd.serve_ns.vm", "ns"},
	{"httpd.serve_ns.remote", "ns"},
	{"httpd.outside_ns", "ns"},
	{"sched.observe_ns", "ns"},
	{"sched.worker_share_max", "ratio"},
	{"openloop.http_p50_ms.r1", "ms"},
	{"openloop.http_p99_ms.r1", "ms"},
	{"openloop.http_p50_ms.r2", "ms"},
	{"openloop.http_p99_ms.r2", "ms"},
	{"openloop.http_max_rate_rps", "1/s"},
	{"tail.latency_p99_us", "us"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.backlog_end", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	out      string
	// servlet-http: the two fixed offered rates, the rate ladder and its
	// p99 limit, all in requests per second and milliseconds.
	rates    [2]float64
	ladder   []float64
	p99Limit time.Duration
}

// result is what a workload returns.
type result struct {
	attempted  int64
	failed     int64
	invariants []string // broken post-run invariants; any makes the run incorrect
	e2e        map[string]float64
	layers     map[string]float64
	report     map[string]any
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layers: map[string]float64{}, report: map[string]any{}}
}

func (r *result) invariant(format string, args ...any) {
	r.invariants = append(r.invariants, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(cfg *config, tr *tracer, res *result) error{
	"local-lrmi":     runLocal,
	"remote-sync":    runRemoteSync,
	"remote-batched": runRemoteBatched,
	"servlet-http":   runServlet,
}

func main() {
	// servlet-http's worker processes are this binary, re-executed.
	remote.MaybeRunWorker(workerSetup)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		if len(args) != 3 {
			fmt.Fprintln(stderr, "usage: jkperf compare OLD.report.json NEW.report.json")
			return 2
		}
		if err := compareReports(args[1], args[2], stdout); err != nil {
			fmt.Fprintln(stderr, "jkperf:", err)
			return 1
		}
		return 0
	}
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "jkperf:", err)
		return 2
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "jkperf:", err)
		return 1
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer(200000)
	}
	res := newResult()
	steal0, total0 := cpuTicks()
	if err := workloads[cfg.workload](cfg, tr, res); err != nil {
		fmt.Fprintf(stderr, "jkperf: %s: %v\n", cfg.workload, err)
		return 1
	}
	res.e2e["max_rss_mb"] = maxRSSMB()

	specs, vals := endToEnd, res.e2e
	if cfg.trace {
		specs, vals = perLayer, res.layers
	}
	metrics := map[string]any{}
	for _, m := range specs {
		v, ok := vals[m.name]
		if !ok {
			v = 0
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "jkperf: metric %s is not a number\n", m.name)
			return 1
		}
		metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	correct := res.failed == 0 && len(res.invariants) == 0 && res.attempted > 0
	tag := fmt.Sprintf("%s-seed%d-trace0", cfg.workload, cfg.seed)
	if cfg.trace {
		tag = fmt.Sprintf("%s-seed%d-trace1", cfg.workload, cfg.seed)
	}
	report := map[string]any{
		"workload":    cfg.workload,
		"seed":        cfg.seed,
		"seconds":     cfg.seconds,
		"trace":       cfg.trace,
		"fingerprint": hostFingerprint(cfg.workload),
		"invariants":  res.invariants,
		"error_rate":  float64(res.failed) / math.Max(1, float64(res.attempted)),
		"host_steal_share": func() float64 {
			steal1, total1 := cpuTicks()
			return float64(steal1-steal0) / math.Max(1, float64(total1-total0))
		}(),
		"details": res.report,
		"metrics": metrics,
	}
	if cfg.trace {
		self := tr.selfTimes()
		names := make([]string, 0, len(self))
		for n := range self {
			names = append(names, n)
		}
		sort.Strings(names)
		spans := map[string]any{}
		for _, n := range names {
			spans[n] = map[string]any{"spans": self[n].spans, "calls": self[n].n, "self_ns_per_call": self[n].perCall()}
		}
		report["spans"] = spans
		report["spans_dropped"] = tr.dropped
		spanFile := filepath.Join(cfg.out, tag+".spans.jsonl")
		if err := tr.write(spanFile); err != nil {
			fmt.Fprintln(stderr, "jkperf: write spans:", err)
			return 1
		}
		report["span_file"] = spanFile
	}
	doc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "jkperf:", err)
		return 1
	}
	if err := os.WriteFile(filepath.Join(cfg.out, tag+".report.json"), append(doc, '\n'), 0o644); err != nil {
		fmt.Fprintln(stderr, "jkperf:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", doc)
	last, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(stderr, "jkperf:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", last)
	return 0
}

func parseFlags(args []string, stderr io.Writer) (*config, error) {
	fs := flag.NewFlagSet("jkperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "local-lrmi, remote-sync, remote-batched or servlet-http")
	seed := fs.Uint64("seed", 1, "input seed: the same seed yields the same op sequence")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "jkperf"), "directory for reports, spans and worker sockets")
	rates := fs.String("http-rates", "3200,5200", "servlet-http, traced: the two fixed offered rates r1,r2 (req/s)")
	ladder := fs.String("http-ladder", "3000,3500,4000,4500,5000,5500,6000,6500,7000,7500,8000,8500,9000", "servlet-http, traced: offered rates tried for openloop.http_max_rate_rps (req/s, ascending)")
	limit := fs.Float64("http-p99-limit-ms", 25, "servlet-http, traced: the p99 latency limit of a ladder step (ms)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if _, ok := workloads[*workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		return nil, errors.New("want --seconds >= 1 and --trace 0 or 1")
	}
	cfg := &config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out,
		p99Limit: time.Duration(*limit * float64(time.Millisecond))}
	rs, err := parseRates(*rates)
	if err != nil || len(rs) != 2 {
		return nil, fmt.Errorf("--http-rates: want two rates, got %q", *rates)
	}
	cfg.rates = [2]float64{rs[0], rs[1]}
	if cfg.ladder, err = parseRates(*ladder); err != nil || len(cfg.ladder) == 0 || !sort.Float64sAreSorted(cfg.ladder) {
		return nil, fmt.Errorf("--http-ladder: want ascending rates, got %q", *ladder)
	}
	return cfg, nil
}

func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad rate %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

// failuresLogged rate-limits failure reports on standard error.
var failuresLogged atomic.Int64

func logFailure(format string, args ...any) {
	if failuresLogged.Add(1) <= 10 {
		fmt.Fprintf(os.Stderr, "jkperf: FAILED: "+format+"\n", args...)
	}
}

// setupable is a workload instance: built by a set-up function, warmed by
// one checked op, torn down by close.
type setupable interface {
	warm() error
	close()
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 15

// repeatSetup builds an instance reps times, timing each from the start
// of construction to the end of its first warm-up op, and keeps the last.
// setup_s is the median.
func repeatSetup[T setupable](reps int, setup func() (T, error)) (T, float64, error) {
	var inst T
	var times []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			inst.close()
		}
		t0 := time.Now()
		var err error
		inst, err = setup()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		if err := inst.warm(); err != nil {
			inst.close()
			var zero T
			return zero, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return inst, median(times), nil
}

// phases splits a closed-loop run: n one-second-or-shorter intervals
// filling the measured seconds. A traced run alternates traced and
// untraced intervals over the first 60% and leaves the rest to the layer
// probes (servlet-http: to its open-loop section).
func phases(cfg *config) (n int, each, probes time.Duration) {
	total := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		probes = total * 4 / 10
		total -= probes
	}
	n = max(2, cfg.seconds)
	if cfg.trace {
		n = max(2, n/2*2)
	}
	return n, total / time.Duration(n), probes
}
