package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"

	"antientropy/internal/obs"
	"antientropy/internal/scenario"
)

// UDP workload parameters: the canned steady-churn scenario at 2000
// nodes on 2 worker processes at the executor's default cycle length.
const (
	udpScenario = "steady-churn"
	udpNodes    = 2000
	udpWorkers  = 2
	// udpControlTimeout bounds every wait for a worker reply; a worker
	// stuck in shutdown fails the run after this long.
	udpControlTimeout = 15 * time.Second
	// udpRunBound bounds one whole run (about 30 s on a 2-core box).
	udpRunBound = 70 * time.Second
	// udpMaxRelError is the relative error the estimate must be within
	// on the last cycle before the final epoch restart; churn keeps
	// replacing 1% of the values every cycle, so it is not exact.
	udpMaxRelError = 0.02
)

// workerReport is what a worker process writes when it exits.
type workerReport struct {
	CPUNS    int64     `json:"cpu_ns"`
	MaxRSSKB int64     `json:"max_rss_kb"`
	Heap     HeapStats `json:"heap"`
}

// udpWorkerMain is the benchmark's worker entry point: the supervisor
// re-executes this binary with it. It runs one scenario.RunUDPWorker
// on stdin/stdout, profiling itself when asked, and writes its CPU,
// peak RSS and allocation totals to the report directory at exit.
func udpWorkerMain(args []string) int {
	fs := flag.NewFlagSet(workerArg, flag.ContinueOnError)
	dir := fs.String("report-dir", "", "directory for this worker's report and profile")
	profile := fs.Bool("profile", false, "write a CPU profile")
	if err := fs.Parse(args); err != nil || *dir == "" {
		return 2
	}
	base := filepath.Join(*dir, fmt.Sprintf("worker-%d", os.Getpid()))
	var prof *os.File
	if *profile {
		f, err := os.Create(base + ".cpu.pprof")
		if err == nil && pprof.StartCPUProfile(f) == nil {
			prof = f
		}
	}
	err := scenario.RunUDPWorker(os.Stdin, os.Stdout)
	if prof != nil {
		pprof.StopCPUProfile()
		prof.Close()
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	raw, _ := json.Marshal(workerReport{
		CPUNS:    (tvDur(ru.Utime) + tvDur(ru.Stime)).Nanoseconds(),
		MaxRSSKB: ru.Maxrss,
		Heap:     readHeap(),
	})
	if werr := os.WriteFile(base+".json", raw, 0o644); werr != nil {
		fmt.Fprintf(os.Stderr, "perfbench worker: %v\n", werr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench worker: %v\n", err)
		return 1
	}
	return 0
}

func runUDP(ctx context.Context, cfg RunConfig, rep *Report) {
	sc, err := scenario.ByName(udpScenario)
	if err != nil {
		rep.Tally.Op(err)
		return
	}
	sc.N = udpNodes
	sc.Seed = cfg.Seed
	self, err := os.Executable()
	if err != nil {
		rep.Tally.Op(err)
		return
	}
	dir, err := os.MkdirTemp(cfg.OutDir, "udp-")
	if err != nil {
		rep.Tally.Op(err)
		return
	}
	workerCmd := []string{self, workerArg, "-report-dir", dir}
	if cfg.Traced() {
		workerCmd = append(workerCmd, "-profile")
	}
	reg := obs.NewRegistry()
	tl := obs.NewTimeline(sc.Cycles + 1)
	opts := scenario.UDPOptions{
		Workers:        udpWorkers,
		WorkerCmd:      workerCmd,
		ControlTimeout: udpControlTimeout,
		Obs:            reg,
		Timeline:       tl,
	}

	type mark struct {
		cpu, children time.Duration
		heap          HeapStats
	}
	marked := make(chan mark, 1)
	stopWatch := make(chan struct{})
	go func() {
		// Polls for the cycle-0 stamp so the timed window opens there.
		for tl.Total() == 0 {
			select {
			case <-stopWatch:
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
		marked <- mark{cpuTime(), childCPU(), readHeap()}
	}()

	stopProfile := startProfile(cfg, filepath.Join(dir, "supervisor.cpu.pprof"))
	trace := cfg.Tracer.NewID()
	var res *scenario.RunResult
	start := time.Now()
	err = rep.Tally.Bounded(ctx, udpRunBound, "udp run", func(ctx context.Context) error {
		var err error
		res, err = scenario.RunUDP(ctx, sc, opts)
		return err
	})
	end := time.Now()
	close(stopWatch)
	cpuEnd, heapEnd := cpuTime(), readHeap()
	cpuProfile, profErr := stopProfile()
	if profErr != nil {
		rep.Note("cpu profile: %v", profErr)
	}
	if err != nil {
		// The run is counted as failed with its error; it has no output
		// to measure.
		return
	}
	var m mark
	select {
	case m = <-marked:
	default:
		rep.Tally.Check(false, "udp run: no cycle-0 timeline stamp")
		return
	}

	// Worker totals, from the reports they wrote at exit.
	reports, _ := filepath.Glob(filepath.Join(dir, "worker-*.json"))
	var workerCPU time.Duration
	var workerRSS float64
	var workerHeap HeapStats
	for _, path := range reports {
		raw, err := os.ReadFile(path)
		var wr workerReport
		if err == nil {
			err = json.Unmarshal(raw, &wr)
		}
		if err != nil {
			rep.Note("worker report %s: %v", path, err)
			continue
		}
		workerCPU += time.Duration(wr.CPUNS)
		workerRSS += float64(wr.MaxRSSKB) / 1024
		workerHeap = workerHeap.Add(wr.Heap)
	}
	if cfg.Traced() {
		profiles, _ := filepath.Glob(filepath.Join(dir, "worker-*.cpu.pprof"))
		for _, path := range profiles {
			b, err := ReadCPUProfile(path)
			if err != nil {
				rep.Note("worker profile %s: %v", path, err)
				continue
			}
			cpuProfile.Merge(b)
		}
	}

	entries := tl.Entries()
	if len(entries) != sc.Cycles+1 {
		rep.Tally.Check(false, "udp run: %d timeline stamps, want %d", len(entries), sc.Cycles+1)
		return
	}
	var nodeCycles float64
	for _, row := range res.PerCycle {
		if row.Cycle > 0 {
			nodeCycles += float64(row.Alive)
		}
	}
	runID := cfg.Tracer.NewID()
	cfg.Tracer.Record(trace, runID, "scenario.setup", start, entries[0].At)
	var gaps []float64
	for i := 1; i < len(entries); i++ {
		gaps = append(gaps, msOf(entries[i].At.Sub(entries[i-1].At)))
		cfg.Tracer.Record(trace, runID, fmt.Sprintf("scenario.cycle %d", entries[i].Cycle), entries[i-1].At, entries[i].At)
	}
	cfg.Tracer.RecordID(Span{Trace: trace, ID: runID, Name: "scenario.RunUDP", Start: start, End: end})
	cycleLen := Median(append([]float64(nil), gaps...))
	// Lateness of each cycle's stamp against the schedule implied by the
	// cycle-0 stamp and the median cycle length.
	var lateness []float64
	for i := 1; i < len(entries); i++ {
		want := entries[0].At.Add(time.Duration(float64(i) * cycleLen * float64(time.Millisecond)))
		lateness = append(lateness, msOf(entries[i].At.Sub(want)))
	}
	wall := entries[len(entries)-1].At.Sub(entries[0].At)

	s := ScrapeRegistry(reg)
	initiated, completed := s["agg_exchanges_initiated_total"], s["agg_exchanges_completed_total"]
	decodeErrors := s["agg_decode_errors_total"]
	bounds, counts, _ := s.Hist("agg_exchange_rtt_seconds")
	rttP50, rttP99 := HistQuantile(bounds, counts, 0.5), HistQuantile(bounds, counts, 0.99)

	cpu := (cpuEnd - m.cpu) + (workerCPU - m.children)
	rep.Set("setup_s", entries[0].At.Sub(start).Seconds())
	rep.Set("node_cycles_per_s", nodeCycles/wall.Seconds())
	rep.Set("cpu_us_per_node_cycle", float64(cpu.Microseconds())/nodeCycles)
	rep.Set("max_rss_mb", maxRSSMB()+workerRSS)
	rep.Set("exchange_ok_frac", finite(completed/initiated))
	rep.SetP("rtt_p50_ms", rttP50, 1e3)
	rep.SetP("rtt_p99_ms", rttP99, 1e3)
	rep.Set("result_s", wall.Seconds())
	rep.SetP("scenario.cycle_p50_ms", Quantile(gaps, 0.5), 1)
	rep.SetP("scenario.cycle_late_p50_ms", Quantile(lateness, 0.5), 1)
	rep.Set("scenario.cycle_late_max_ms", slices.Max(lateness))
	rep.Note("scenario.cycle_late_p99_ms: %s", fmtPercentile(Quantile(lateness, 0.99), 1, "ms"))
	rep.Set("agent.timeouts_per_node_cycle", s["agg_exchange_timeouts_total"]/nodeCycles)
	rep.Set("agent.refused_per_node_cycle",
		(s["agg_exchanges_refused_busy_total"]+s["agg_exchanges_refused_joining_total"])/nodeCycles)
	rep.Set("agent.declined_per_node_cycle", s["agg_exchanges_declined_total"]/nodeCycles)
	rep.Set("agent.stale_per_node_cycle", s["agg_stale_dropped_total"]/nodeCycles)
	rep.Set("agent.decode_errors", decodeErrors)
	full, delta := s["agg_gossip_frames_full_total"], s["agg_gossip_frames_delta_total"]
	rep.Set("wire.full_frame_frac", finite(full/(full+delta)))
	rep.Set("wire.entries_per_frame", finite(s["agg_gossip_entries_sent_total"]/(full+delta)))
	rep.Set("transport.datagrams_per_batch", finite(s["agg_transport_batch_size_sum"]/s["agg_transport_batch_size_count"]))
	rep.Set("transport.queue_drops", s["agg_transport_queue_drops_total"])
	rep.Set("transport.filter_drops", s["agg_transport_filter_drops_total"])
	rep.Set("transport.queue_depth_max", s["agg_transport_queue_depth"])
	heapPerNodeCycle(rep, heapEnd.Sub(m.heap).Add(workerHeap), nodeCycles)
	rep.Note("1 run of %s at %d nodes on %d worker processes, cycle %.0f ms; %d node-cycles; heap counts cover the workers' whole lives",
		udpScenario, udpNodes, udpWorkers, cycleLen, int64(nodeCycles))
	if cfg.Traced() {
		layerCPU(rep, cpuProfile, nodeCycles)
	}

	// Correctness: the run completed (above), no datagram failed to
	// decode, and the estimate tracked the churned mean.
	var problems []string
	if decodeErrors != 0 {
		problems = append(problems, fmt.Sprintf("%v decode errors", decodeErrors))
	}
	late := res.PerCycle[len(res.PerCycle)-2]
	if late.RelError > udpMaxRelError {
		problems = append(problems, fmt.Sprintf("cycle %d relative error %.3g > %g", late.Cycle, late.RelError, udpMaxRelError))
	}
	rep.Tally.Check(len(problems) == 0, "udp run: %v", problems)
}
