// Command perfbench is the repository's benchmark: four seeded workloads
// that drive the provenance fabric's public packages from outside and
// report end-to-end latency, throughput and cost on the simulated clock,
// host cost on the wall clock, and — in a separate traced run — the numbers
// of each layer.
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 15 --trace 0
//
// Workloads: ingest, lineage, reshard, blast (see workloads below and
// BENCHMARK.json). --trace 0 prints every end-to-end metric; --trace 1 runs
// the same workload with spans and samplers on and prints every per-layer
// metric, writing the spans to .bench_build/spans/. --check-scale runs the
// workload at its clock scale and at half of it and fails unless every
// simulated-time metric agrees within its bound. The last line of standard
// output is one JSON object; a run whose correctness gate fails prints
// correct=false, no metrics, and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// scales is the one table of live-clock scales: simulated seconds per wall
// second. All latencies are read from the simulated clock, which today runs
// scaled wall time, so each scale is kept low enough that host CPU does not
// leak into simulated time (--check-scale tests that). A discrete-event
// clock retires this table.
var scales = map[string]float64{
	"ingest":  10,
	"lineage": 5,
	"reshard": 20,
	"blast":   40,
}

// readBackScale is the clock scale of the write workloads' read-back
// phase: a one-SELECT query takes about 23 simulated milliseconds and its
// modelled tail is a few milliseconds longer, so at higher scales a host
// stall of a millisecond would set the p99.
const readBackScale = 2.5

// workloads maps each workload name to its run function.
var workloads = map[string]func(config) (*result, error){
	"ingest":  runIngest,
	"lineage": runLineage,
	"reshard": runReshard,
	"blast":   runBlast,
}

// Set-up is built at least minSetupRuns times and until minSetupWall has
// passed (at most maxSetupRuns); setup_s is the median build's process CPU
// time, and the last one built is measured. Set-up is single-threaded
// compute, and CPU time leaves out the time the host gave to other tenants,
// which in wall time moved the median of a few-millisecond set-up by up to
// 45% between sets of runs. The collector is off during a build (a full
// collection runs before each), so background mark workers on other cores
// do not add the previous builds' garbage to the figure.
const (
	minSetupRuns = 5
	maxSetupRuns = 50
	minSetupWall = time.Second
)

// config is one run's parameters.
type config struct {
	seed      int64
	seconds   float64 // wall seconds of the measured window
	scale     float64
	readScale float64 // scale of the read-back phase
	tr        *tracer // nil for the untraced run
}

// window is the measured window in simulated time.
func (c config) window() time.Duration {
	return time.Duration(c.seconds * c.scale * float64(time.Second))
}

// result is what a workload measured.
type result struct {
	attempted, failed int
	problems          []string // correctness-gate failures
	e2e               map[string]float64
	layer             map[string]float64
	notes             []string // sample counts and percentiles, for the table
}

func newResult() *result {
	return &result{e2e: make(map[string]float64), layer: make(map[string]float64)}
}

// metric names and units.
type metric struct{ name, unit string }

var endToEnd = []metric{
	{"commit_p50_ms", "ms"}, {"commit_p99_ms", "ms"},
	{"ack_p50_ms", "ms"}, {"ack_p99_ms", "ms"},
	{"query_p50_ms", "ms"}, {"query_p99_ms", "ms"},
	{"peak_tps", "1/s"}, {"app_elapsed_s", "s"},
	{"usd_per_1k_ops", "usd"}, {"bytes_in_per_user_byte", "ratio"},
	{"setup_s", "s"}, {"wall_s", "s"}, {"cpu_s", "s"}, {"rss_mb", "MB"},
}

// simTimeMetrics are the end-to-end metrics read off the simulated clock;
// --check-scale compares them across clock scales.
var simTimeMetrics = []string{
	"commit_p50_ms", "commit_p99_ms", "ack_p50_ms", "ack_p99_ms",
	"query_p50_ms", "query_p99_ms", "peak_tps", "app_elapsed_s",
}

func main() {
	name := flag.String("workload", "", "workload: ingest, lineage, reshard or blast")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 15, "wall seconds of the measured window")
	traced := flag.Int("trace", 0, "1 runs with spans and samplers and prints the per-layer metrics")
	checkScale := flag.Bool("check-scale", false, "run at the workload's scale and at half of it and compare")
	flag.Parse()
	// Fewer collections mean fewer host pauses leaking into simulated time;
	// the heap stays small either way.
	debug.SetGCPercent(400)

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds\n", *name)
		os.Exit(2)
	}
	c := config{seed: *seed, seconds: *seconds, scale: scales[*name], readScale: readBackScale}
	if *checkScale {
		os.Exit(checkScaleInvariance(run, c))
	}
	if *traced == 1 {
		c.tr = newTracer()
	}
	res, err := run(c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if c.tr != nil {
		path := fmt.Sprintf(".bench_build/spans/%s-%d.json", *name, *seed)
		if err := c.tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
	}
	os.Exit(report(res, c.tr != nil))
}

// report prints the table and the JSON line; it returns the exit code.
func report(res *result, traced bool) int {
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: len(res.problems) == 0, Attempted: max(res.attempted, 1), Failed: res.failed, Metrics: map[string]map[string]any{}}
	for _, p := range res.problems {
		fmt.Printf("GATE FAILED: %s\n", p)
	}
	if out.Correct {
		list := endToEnd
		vals := res.e2e
		if traced {
			list, vals = perLayer(), res.layer
		}
		for _, m := range list {
			v := vals[m.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			fmt.Printf("%-40s %14.4f %s\n", m.name, v, m.unit)
			out.Metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
		}
		for _, n := range res.notes {
			fmt.Println(n)
		}
	} else {
		out.Failed = max(out.Failed, 1)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	if !out.Correct {
		return 1
	}
	return 0
}

// host measures the process around a measured window.
type host struct {
	wall0 time.Time
	cpu0  time.Duration
	mem0  runtime.MemStats
}

func startHost() host {
	h := host{wall0: time.Now(), cpu0: cpuTime()}
	runtime.ReadMemStats(&h.mem0)
	return h
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// finish fills the host metrics of the window that began at startHost.
func (h host) finish(r *result) {
	r.e2e["wall_s"] = time.Since(h.wall0).Seconds()
	r.e2e["cpu_s"] = (cpuTime() - h.cpu0).Seconds()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.e2e["rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.layer["host.alloc_mb"] = float64(m.TotalAlloc-h.mem0.TotalAlloc) / (1 << 20)
	r.layer["host.gc_cycles"] = float64(m.NumGC - h.mem0.NumGC)
}

// timedSetup builds a workload's set-up repeatedly and returns the last one
// with the median build's CPU time in seconds.
func timedSetup[T any](build func() (T, error)) (T, float64, error) {
	var v T
	var secs []float64
	start := time.Now()
	for len(secs) < minSetupRuns || len(secs) < maxSetupRuns && time.Since(start) < minSetupWall {
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		t0 := cpuTime()
		var err error
		v, err = build()
		secs = append(secs, (cpuTime() - t0).Seconds())
		debug.SetGCPercent(gc)
		if err != nil {
			return v, 0, fmt.Errorf("set-up: %w", err)
		}
	}
	runtime.GC() // keep set-up garbage out of the measured window
	return v, median(secs), nil
}

// finishTrace adds the tracing metrics: span count, recording cost, self
// time per layer, and the traced run's own end-to-end figures, which set
// against an untraced run of the same seed give the tracing overhead.
func finishTrace(r *result, tr *tracer) {
	if tr == nil {
		return
	}
	r.layer["trace.spans"] = float64(tr.count())
	r.layer["trace.record_ms"] = float64(tr.cost.Load()) / 1e6
	self := tr.selfSeconds()
	for _, l := range traceLayers {
		r.layer["trace.self_s."+l] = self[l]
	}
	for _, m := range endToEnd {
		r.layer["traced."+m.name] = r.e2e[m.name]
	}
}

// addLatencies records a p50/p99 pair and its sample count.
func addLatencies(r *result, prefix string, lat []time.Duration) {
	p50, p99 := percentile(lat, 50), percentile(lat, 99)
	r.e2e[prefix+"_p50_ms"] = p50.Value
	r.e2e[prefix+"_p99_ms"] = p99.Value
	r.layer["samples."+prefix] = float64(p99.N)
	r.notes = append(r.notes, fmt.Sprintf("  %s: n=%d, tail reported at p%g", prefix, p99.N, p99.Pct))
}

// checkScaleInvariance runs c at its scale and at half of it and compares
// every simulated-time metric against its bound in BENCHMARK.json.
func checkScaleInvariance(run func(config) (*result, error), c config) int {
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	half := c
	half.scale, half.readScale = c.scale/2, c.readScale/2
	half.seconds = c.seconds * 2 // same simulated window, twice the wall time
	var runs [2]*result
	for i, rc := range []config{c, half} {
		r, err := run(rc)
		if err == nil && len(r.problems) > 0 {
			err = fmt.Errorf("gate failed: %s", strings.Join(r.problems, "; "))
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: run at scale %g: %v\n", rc.scale, err)
			return 1
		}
		runs[i] = r
	}
	full, low := runs[0], runs[1]
	code := 0
	for _, name := range simTimeMetrics {
		a, b := full.e2e[name], low.e2e[name]
		diff := math.Abs(a-b) / math.Max(math.Abs(b), 1e-12)
		verdict := "ok"
		if diff > bounds[name] {
			verdict, code = "OUTSIDE BOUND", 1
		}
		fmt.Printf("%-16s scale %-4g %12.4f  scale %-4g %12.4f  diff %6.2f%%  bound %4.0f%%  %s\n",
			name, c.scale, a, half.scale, b, 100*diff, 100*bounds[name], verdict)
	}
	return code
}

// readBounds returns the end-to-end bounds declared in BENCHMARK.json.
func readBounds(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading bounds: %w", err)
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	out := make(map[string]float64)
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// traceLayers are the layers spans are recorded for.
var traceLayers = []string{"bench", "core", "core.reshard", "query", "translog", "pasfs"}

// perLayer lists every per-layer metric with its unit.
func perLayer() []metric {
	var m []metric
	add := func(unit string, names ...string) {
		for _, n := range names {
			m = append(m, metric{n, unit})
		}
	}
	for _, c := range gateClasses {
		add("count", "sim.gate_depth_max."+c)
	}
	add("ratio", "sim.billed_ops_per_op")
	add("count", "sim.faults_injected")
	add("ratio", "sqs.sends_per_txn", "sqs.receives_per_txn", "sqs.useful_receive_ratio")
	add("count", "sqs.wal_depth_max")
	add("ratio", "sdb.batch_puts_per_txn", "sdb.batch_fill", "sdb.shard_skew",
		"sdb.selects_per_query", "sdb.items_examined_per_result", "sdb.deletes_per_gc_item")
	add("ratio", "s3.ops_per_txn")
	add("B", "s3.bytes_in_per_commit")
	add("ratio", "resilient.retry_ratio")
	add("count", "resilient.hedges", "resilient.budget_denials", "resilient.breaker_opens")
	add("ms", "p3.dwell_p50_ms", "p3.dwell_p99_ms")
	add("ratio", "p3.txns_per_notice")
	add("count", "p3.pending_max")
	add("ratio", "bus.items_per_notice")
	add("s", "reshard.total_s", "reshard.copy_s", "reshard.gc_s")
	add("count", "reshard.copied_items", "reshard.gc_items", "reshard.wal_migrated")
	for _, k := range queryKinds {
		add("ms", "query.p50_ms."+k)
	}
	add("ratio", "query.cache_hit_ratio")
	add("count", "query.cache_evictions")
	add("ratio", "query.invalidations_per_commit")
	add("us", "query.cpu_us_per_query")
	add("ms", "translog.checkpoint_p50_ms", "translog.checkpoint_wall_ms")
	add("count", "translog.leaves")
	add("us", "pasfs.apply_us")
	add("ms", "pasfs.commit_p50_ms")
	add("ratio", "pass.bundles_per_commit")
	add("B", "pass.bytes_per_commit")
	add("MB", "host.alloc_mb")
	add("count", "host.gc_cycles")
	add("ms", "gen.lateness_max_ms")
	add("count", "samples.commit", "samples.ack", "samples.query")
	add("count", "trace.spans")
	add("ms", "trace.record_ms")
	for _, l := range traceLayers {
		add("s", "trace.self_s."+l)
	}
	for _, e := range endToEnd {
		add(e.unit, "traced."+e.name)
	}
	return m
}

// queryKinds are the lineage workload's query shapes.
var queryKinds = []string{"descendants", "ancestors", "versions", "attr"}
