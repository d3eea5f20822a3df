// Command perfbench is the repository benchmark. It drives the repo's
// public entry points on one workload, times every call into a layer
// from the outside, checks that the outputs are correct, and prints
// the metrics named in BENCHMARK.json.
//
//	bash perfbench/run.sh --workload sim-partition-heal --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it
// runs the workload twice, untraced and then traced (spans around every
// call, a CPU profile attributed to layers, public counters), prints
// both end-to-end tables side by side so the tracing overhead shows,
// and reports the per-layer metrics. The last line of standard output
// is always one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Inputs derive only from --seed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// MetricDef names one reported metric.
type MetricDef struct {
	Name string
	Unit string
}

// Gated are the end-to-end metrics every workload measures and prints
// in its result line; BENCHMARK.json bounds them. result_s is how long
// a user waits for the aggregate: the simulator's scenario run (cycles
// 1..90), or, on the serving daemon, a feed until the estimate reports
// the fed mean converged (fresh_p50_s). Request latencies are printed
// but not gated: on a shared 2-core box they vary between runs by more
// than any useful bound.
var Gated = []MetricDef{
	{"setup_s", "s"},
	{"cpu_us_per_node_cycle", "us"},
	{"max_rss_mb", "MB"},
	{"result_s", "s"},
}

// EndToEnd are the end-to-end metrics the report prints by name, with
// "n/a" on workloads they do not apply to.
var EndToEnd = []MetricDef{
	{"setup_s", "s"},
	{"node_cycles_per_s", "1/s"},
	{"cpu_us_per_node_cycle", "us"},
	{"max_rss_mb", "MB"},
	{"estimate_p50_ms", "ms"},
	{"estimate_p99_ms", "ms"},
	{"feed_p50_ms", "ms"},
	{"feed_p99_ms", "ms"},
	{"fresh_p50_s", "s"},
	{"exchange_ok_frac", "frac"},
	{"rtt_p50_ms", "ms"},
	{"rtt_p99_ms", "ms"},
	{"fail_frac", "frac"},
	{"result_s", "s"},
}

// PerLayer are the per-layer metrics of the traced run. Every workload
// reports all of them; a layer that does no work on a workload reads 0
// and prints as n/a.
var PerLayer = perLayerDefs()

func perLayerDefs() []MetricDef {
	var defs []MetricDef
	for _, l := range Layers {
		defs = append(defs, MetricDef{l + ".cpu_us_per_node_cycle", "us"})
	}
	return append(defs, []MetricDef{
		{"cpu.profiled_us_per_node_cycle", "us"},
		{"overlay.cpu_share", "frac"},
		{"overlay.sort_share", "frac"},
		{"cpu.sort_share", "frac"},
		{"heap.alloc_bytes_per_node_cycle", "B"},
		{"heap.allocs_per_node_cycle", "count"},
		{"gc.cycles", "count"},
		{"scenario.cycle_p50_ms", "ms"},
		{"scenario.cycle_p90_ms", "ms"},
		{"scenario.cycle_late_p50_ms", "ms"},
		{"scenario.cycle_late_max_ms", "ms"},
		{"parsim.exchanges_per_node_cycle", "count"},
		{"agent.timeouts_per_node_cycle", "count"},
		{"agent.refused_per_node_cycle", "count"},
		{"agent.declined_per_node_cycle", "count"},
		{"agent.stale_per_node_cycle", "count"},
		{"agent.decode_errors", "count"},
		{"wire.full_frame_frac", "frac"},
		{"wire.entries_per_frame", "count"},
		{"transport.datagrams_per_batch", "count"},
		{"transport.queue_drops", "count"},
		{"transport.filter_drops", "count"},
		{"transport.queue_depth_max", "count"},
		{"serve.handler_p50_ms", "ms"},
		{"serve.handler_p99_ms", "ms"},
		{"serve.estimate_call_us", "us"},
		{"serve.feed_call_us", "us"},
		{"serve.create_ms", "ms"},
		{"serve.setup_wall_s", "s"},
		{"serve.count_no_estimate_reads", "count"},
		{"gen.late_p99_ms", "ms"},
		{"gen.cpu_share", "frac"},
		{"gen.fresh_feeds", "count"},
		{"gen.superseded_feeds", "count"},
		{"gen.pending_feeds", "count"},
		{"trace.cpu_overhead_frac", "frac"},
	}...)
}

// Metric is one measured value. NA marks a metric the workload does
// not exercise; Insufficient a percentile with too few samples beyond
// it. N is the sample count behind a percentile or median.
type Metric struct {
	Value        float64
	NA           bool
	Insufficient bool
	N            int
	// Base, when set, is printed next to a share: what it is a share of.
	Base string
}

// Report is the outcome of one pass over a workload.
type Report struct {
	Traced  bool
	Tally   *Tally
	Metrics map[string]Metric
	// Notes are extra lines for the human-readable report.
	Notes []string
}

func newReport(traced bool) *Report {
	return &Report{Traced: traced, Tally: &Tally{}, Metrics: map[string]Metric{}}
}

// Set records a plain value.
func (r *Report) Set(name string, v float64) { r.Metrics[name] = Metric{Value: v} }

// SetN records a median-like value with its sample count.
func (r *Report) SetN(name string, v float64, n int) { r.Metrics[name] = Metric{Value: v, N: n} }

// SetP records a percentile; an insufficient one keeps no value.
func (r *Report) SetP(name string, p Percentile, scale float64) {
	if !p.OK {
		r.Metrics[name] = Metric{Insufficient: true, N: p.N}
		return
	}
	r.Metrics[name] = Metric{Value: p.Value * scale, N: p.N}
}

// SetShare records a share with the base it is a share of.
func (r *Report) SetShare(name string, part, whole float64, base string) {
	v := 0.0
	if whole > 0 {
		v = part / whole
	}
	r.Metrics[name] = Metric{Value: v, Base: base}
}

// Note adds a line to the human-readable report.
func (r *Report) Note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// RunConfig is what a workload receives.
type RunConfig struct {
	Seed    uint64
	Seconds int
	// Tracer is nil on the untraced pass.
	Tracer *Tracer
	// OutDir holds this run's profiles, worker reports and spans.
	OutDir string
}

// Traced reports whether this is the traced pass.
func (c RunConfig) Traced() bool { return c.Tracer != nil }

// Workload is one benchmark workload; BENCHMARK.md says why each
// exists.
type Workload struct {
	Name string
	Run  func(ctx context.Context, cfg RunConfig, rep *Report)
}

var workloads = []Workload{
	{"sim-partition-heal", runSim},
	{"serve-mixed", runServe},
	{"udp-churn", runUDP},
}

// workerArg re-executes this binary as a UDP-executor worker.
const workerArg = "udp-worker"

// passBudget bounds one pass so a whole invocation (two passes with
// --trace 1) ends within the benchmark's 180-second limit.
const passBudget = 80 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == workerArg {
		os.Exit(udpWorkerMain(os.Args[2:]))
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 30, "how long one pass measures")
	trace := fs.Int("trace", 0, "1 = also make a traced pass and report the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *Workload
	for i := range workloads {
		if workloads[i].Name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds ≥ 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	outDir, err := filepath.Abs(filepath.Join(".bench_build", "runs", fmt.Sprintf("%s-%d-%d", wl.Name, *seed, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(outDir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: output directory: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%d trace=%d GOMAXPROCS=%d %s/%s %s\n",
		wl.Name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH, runtime.Version())

	pass := func(traced bool) *Report {
		cfg := RunConfig{Seed: *seed, Seconds: *seconds, OutDir: outDir}
		if traced {
			cfg.Tracer = &Tracer{}
		}
		ctx, cancel := context.WithTimeout(context.Background(), passBudget)
		defer cancel()
		rep := newReport(traced)
		wl.Run(ctx, cfg, rep)
		rep.Set("fail_frac", rep.Tally.FailFrac())
		naAll(rep)
		if traced {
			path := filepath.Join(outDir, "spans.json")
			if err := cfg.Tracer.WriteFile(path); err != nil {
				rep.Note("spans: %v", err)
			} else {
				rep.Note("spans: %d written to %s", cfg.Tracer.Len(), path)
			}
		}
		return rep
	}

	untraced := pass(false)
	reports := []*Report{untraced}
	if *trace == 1 {
		traced := pass(true)
		if base, t := untraced.Metrics["cpu_us_per_node_cycle"], traced.Metrics["cpu_us_per_node_cycle"]; base.Value > 0 && t.Value > 0 {
			traced.Set("trace.cpu_overhead_frac", t.Value/base.Value-1)
		}
		reports = append(reports, traced)
	}
	printHuman(stdout, reports)

	result := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Out       map[string]jsonMetric `json:"metrics"`
	}{Correct: true, Out: map[string]jsonMetric{}}
	for _, r := range reports {
		a, f, _ := r.Tally.Counts()
		result.Attempted += a
		result.Failed += f
		result.Correct = result.Correct && r.Tally.Correct()
	}
	final, defs := untraced, Gated
	if *trace == 1 {
		final, defs = reports[1], PerLayer
	}
	for _, d := range defs {
		m := final.Metrics[d.Name]
		result.Out[d.Name] = jsonMetric{Value: m.Value, Unit: d.Unit}
		if *trace == 0 && (m.NA || m.Insufficient) {
			// A gated metric must be a measured number: a run that failed
			// before measuring it, or a percentile with too few samples,
			// leaves none.
			result.Correct = false
			fmt.Fprintf(stdout, "invalid: %s not measured (n=%d)\n", d.Name, m.N)
		}
	}
	if result.Attempted == 0 {
		result.Attempted = 1
		result.Failed = 1
		result.Correct = false
	}
	line, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// printHuman prints the end-to-end table (one column per pass, so the
// traced column shows the tracing overhead), the per-layer table of a
// traced pass, and every failure reason and note.
func printHuman(w io.Writer, reports []*Report) {
	header := "untraced"
	if len(reports) > 1 {
		header = "untraced | traced"
	}
	fmt.Fprintf(w, "end-to-end (%s):\n", header)
	for _, d := range EndToEnd {
		cols := make([]string, len(reports))
		for i, r := range reports {
			cols[i] = formatMetric(r.Metrics, d)
		}
		fmt.Fprintf(w, "  %-24s %s\n", d.Name, strings.Join(cols, " | "))
	}
	if len(reports) > 1 {
		r := reports[1]
		fmt.Fprintln(w, "per-layer (traced pass):")
		for _, d := range PerLayer {
			fmt.Fprintf(w, "  %-34s %s\n", d.Name, formatMetric(r.Metrics, d))
		}
	}
	for _, r := range reports {
		pass := "untraced"
		if r.Traced {
			pass = "traced"
		}
		a, f, reasons := r.Tally.Counts()
		fmt.Fprintf(w, "%s pass: attempted=%d failed=%d\n", pass, a, f)
		for _, reason := range reasons {
			fmt.Fprintf(w, "  FAIL %s\n", reason)
		}
		for _, n := range r.Notes {
			fmt.Fprintf(w, "  %s\n", n)
		}
	}
}

func formatMetric(ms map[string]Metric, d MetricDef) string {
	m, ok := ms[d.Name]
	switch {
	case !ok || m.NA:
		return "n/a"
	case m.Insufficient:
		return fmt.Sprintf("insufficient (n=%d)", m.N)
	}
	s := fmt.Sprintf("%.6g %s", m.Value, d.Unit)
	if m.N > 0 {
		s += fmt.Sprintf(" (n=%d)", m.N)
	}
	if m.Base != "" {
		s += " of " + m.Base
	}
	return s
}

// layerCPU reports the profile's per-layer CPU per node-cycle, the
// overlay and sort shares, and prints every layer's share of the
// profiled total next to that total.
func layerCPU(rep *Report, b CPUBreakdown, nodeCycles float64) {
	if nodeCycles <= 0 || b.TotalNS == 0 {
		return
	}
	perNC := func(ns int64) float64 { return float64(ns) / 1e3 / nodeCycles }
	total := perNC(b.TotalNS)
	base := fmt.Sprintf("%.4g us/node-cycle profiled", total)
	rep.Set("cpu.profiled_us_per_node_cycle", total)
	type share struct {
		layer string
		ns    int64
	}
	var shares []share
	for _, l := range Layers {
		rep.Set(l+".cpu_us_per_node_cycle", perNC(b.LayerNS[l]))
		shares = append(shares, share{l, b.LayerNS[l]})
	}
	rep.SetShare("overlay.cpu_share", float64(b.LayerNS["overlay"]), float64(b.TotalNS), base)
	rep.SetShare("overlay.sort_share", float64(b.OverlaySortNS), float64(b.LayerNS["overlay"]),
		fmt.Sprintf("%.4g us/node-cycle overlay", perNC(b.LayerNS["overlay"])))
	rep.SetShare("cpu.sort_share", float64(b.SortNS), float64(b.TotalNS), base)
	sort.Slice(shares, func(i, j int) bool { return shares[i].ns > shares[j].ns })
	var parts []string
	for _, s := range shares {
		if s.ns > 0 {
			parts = append(parts, fmt.Sprintf("%s %.1f%%", s.layer, 100*float64(s.ns)/float64(b.TotalNS)))
		}
	}
	rep.Note("cpu shares of %s (%d ms sampled): %s", base, b.TotalNS/1e6, strings.Join(parts, ", "))
}

// heapPerNodeCycle reports the allocation counters per node-cycle.
func heapPerNodeCycle(rep *Report, h HeapStats, nodeCycles float64) {
	if nodeCycles <= 0 {
		return
	}
	rep.Set("heap.alloc_bytes_per_node_cycle", float64(h.AllocBytes)/nodeCycles)
	rep.Set("heap.allocs_per_node_cycle", float64(h.Allocs)/nodeCycles)
	rep.Set("gc.cycles", float64(h.GCCycles))
}

// startProfile starts a CPU profile into path when the pass is traced;
// the returned stop function ends it and folds it by layer.
func startProfile(cfg RunConfig, path string) func() (CPUBreakdown, error) {
	if !cfg.Traced() {
		return func() (CPUBreakdown, error) { return CPUBreakdown{}, nil }
	}
	f, err := os.Create(path)
	if err == nil {
		err = pprof.StartCPUProfile(f)
		if err != nil {
			f.Close()
		}
	}
	if err != nil {
		return func() (CPUBreakdown, error) { return CPUBreakdown{}, err }
	}
	return func() (CPUBreakdown, error) {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return CPUBreakdown{}, err
		}
		return ReadCPUProfile(path)
	}
}

// naAll marks every listed metric the workload does not set as n/a.
func naAll(rep *Report) {
	for _, defs := range [][]MetricDef{EndToEnd, PerLayer} {
		for _, d := range defs {
			if _, ok := rep.Metrics[d.Name]; !ok {
				rep.Metrics[d.Name] = Metric{NA: true}
			}
		}
	}
}

// msOf converts a duration to float milliseconds.
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// finite replaces a non-finite value by 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
