package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"antientropy/internal/obs"
	"antientropy/internal/scenario"
)

// Sim workload parameters: the canned partition-heal scenario at 5×10⁴
// nodes on the sharded engine with a fixed shard count, so the output
// is identical on any machine.
const (
	simScenario = "partition-heal"
	simNodes    = 50_000
	simShards   = 2
	// simSetupProbes extra runs of the scenario cut to one cycle sample
	// the set-up time several times per pass.
	simSetupProbes = 9
	// simRunSeconds is how long one full run takes on a 2-core box.
	simRunSeconds = 13
	// simRunBound bounds one full run.
	simRunBound = 60 * time.Second
	// simMaxRelError is the final relative error a run must reach.
	simMaxRelError = 1e-9
)

// simRun is what one scenario run yields.
type simRun struct {
	setup      time.Duration
	wall       time.Duration // cycle-0 stamp to last stamp
	gaps       []float64     // per-cycle wall time, ms
	cpu        time.Duration // CPU from the cycle-0 stamp to the end
	heap       HeapStats
	nodeCycles float64
	messages   []int64
	exchanges  int64
}

// simRuns is how many full runs a pass of the given length makes: as
// many as fit at simRunSeconds each, at least one. The count depends
// only on the requested length, never on how fast the machine happens
// to be, so the median is always taken over the same number of runs.
func simRuns(seconds int) int { return max(1, seconds/simRunSeconds) }

// simOptions are the engine options every sim run uses.
func simOptions(tl *obs.Timeline) scenario.SimOptions {
	return scenario.SimOptions{
		Engine:   scenario.EngineSharded,
		Shards:   simShards,
		Workers:  min(simShards, runtime.NumCPU()),
		Timeline: tl,
	}
}

func runSim(ctx context.Context, cfg RunConfig, rep *Report) {
	sc, err := scenario.ByName(simScenario)
	if err != nil {
		rep.Tally.Op(err)
		return
	}
	sc.N = simNodes
	sc.Seed = cfg.Seed
	tr := cfg.Tracer
	trace := tr.NewID()

	stopProfile := startProfile(cfg, filepath.Join(cfg.OutDir, "sim.cpu.pprof"))
	var runs []simRun
	var setups []float64
	for i := 0; i < simRuns(cfg.Seconds); i++ {
		r, err := simOnce(ctx, sc, tr, trace, rep.Tally)
		if err != nil {
			break
		}
		runs = append(runs, r)
		setups = append(setups, r.setup.Seconds())
	}
	cpuProfile, profErr := stopProfile()
	if profErr != nil {
		rep.Note("cpu profile: %v", profErr)
	}
	// Set-up probes: the same scenario cut to one cycle (its scripted
	// events, all later, dropped), run to sample the set-up time again
	// without another full run. Their cycle-1 message count must match
	// the full runs'.
	probe := sc
	probe.Cycles = 1
	probe.Events = nil
	for i := 0; i < simSetupProbes && len(runs) > 0; i++ {
		r, err := simOnce(ctx, probe, tr, trace, rep.Tally)
		if err != nil {
			break
		}
		setups = append(setups, r.setup.Seconds())
		rep.Tally.Check(len(r.messages) > 1 && r.messages[1] == runs[0].messages[1],
			"set-up probe %d: cycle-1 messages %v differ from the full run's %d", i, r.messages, runs[0].messages[1])
	}
	if len(runs) == 0 {
		return
	}
	for i := 1; i < len(runs); i++ {
		rep.Tally.Check(sameMessages(runs[0], runs[i]),
			"sim run %d: per-cycle message counts differ from run 0 of the same seed", i)
	}

	var gaps, walls, rates, cpus, allocB, allocs []float64
	var nodeCycles float64
	var gcs uint64
	var exchanges int64
	for _, r := range runs {
		gaps = append(gaps, r.gaps...)
		walls = append(walls, r.wall.Seconds())
		rep.Note("run: set-up %.3f s, cycles 1..%d %.3f s, %.4g us CPU per node-cycle",
			r.setup.Seconds(), len(r.gaps), r.wall.Seconds(), float64(r.cpu.Microseconds())/r.nodeCycles)
		rates = append(rates, r.nodeCycles/r.wall.Seconds())
		cpus = append(cpus, float64(r.cpu.Microseconds())/r.nodeCycles)
		allocB = append(allocB, float64(r.heap.AllocBytes)/r.nodeCycles)
		allocs = append(allocs, float64(r.heap.Allocs)/r.nodeCycles)
		gcs += r.heap.GCCycles
		nodeCycles += r.nodeCycles
		exchanges += r.exchanges
	}
	rep.SetN("setup_s", Median(setups), len(setups))
	rep.SetN("node_cycles_per_s", Median(rates), len(rates))
	rep.SetN("cpu_us_per_node_cycle", Median(cpus), len(cpus))
	rep.Set("max_rss_mb", maxRSSMB())
	p50, p90 := Quantile(gaps, 0.5), Quantile(gaps, 0.9)
	rep.SetN("result_s", Median(walls), len(walls))
	rep.SetP("scenario.cycle_p50_ms", p50, 1)
	rep.SetP("scenario.cycle_p90_ms", p90, 1)
	rep.Note("scenario.cycle_p99_ms: %s", fmtPercentile(Quantile(gaps, 0.99), 1, "ms"))
	rep.Set("parsim.exchanges_per_node_cycle", float64(exchanges)/nodeCycles)
	rep.SetN("heap.alloc_bytes_per_node_cycle", Median(allocB), len(allocB))
	rep.SetN("heap.allocs_per_node_cycle", Median(allocs), len(allocs))
	rep.Set("gc.cycles", float64(gcs))
	rep.Note("%d full runs of %s at %d nodes, %d shards; %d node-cycles timed", len(runs), simScenario, simNodes, simShards, int64(nodeCycles))
	if cfg.Traced() {
		layerCPU(rep, cpuProfile, nodeCycles)
	}
}

// simOnce makes one bounded scenario run, checks its output, and
// measures it from the outside: set-up until the cycle-0 timeline
// stamp, then CPU, allocations and per-cycle wall time up to the last
// stamp.
func simOnce(ctx context.Context, sc scenario.Scenario, tr *Tracer, trace uint64, tally *Tally) (simRun, error) {
	// Start every run from a collected heap returned to the OS, so the
	// previous run's garbage is neither collected on this run's CPU nor
	// counted in its peak RSS.
	debug.FreeOSMemory()
	tl := obs.NewTimeline(sc.Cycles + 1)
	type mark struct {
		cpu  time.Duration
		heap HeapStats
	}
	marked := make(chan mark, 1)
	stopWatch := make(chan struct{})
	defer close(stopWatch)
	go func() {
		// Polls for the cycle-0 stamp so the timed window opens there.
		for tl.Total() == 0 {
			select {
			case <-stopWatch:
				return
			case <-time.After(time.Millisecond):
			}
		}
		marked <- mark{cpuTime(), readHeap()}
	}()

	var res *scenario.RunResult
	start := time.Now()
	err := tally.Bounded(ctx, simRunBound, "sim run", func(context.Context) error {
		var err error
		res, err = scenario.RunSimWith(sc, simOptions(tl))
		return err
	})
	end := time.Now()
	if err != nil {
		return simRun{}, err
	}
	cpuEnd, heapEnd := cpuTime(), readHeap()
	var m mark
	select {
	case m = <-marked:
	case <-time.After(time.Second):
		tally.Check(false, "sim run: no cycle-0 timeline stamp")
		return simRun{}, fmt.Errorf("no cycle-0 stamp")
	}

	entries := tl.Entries()
	r := simRun{cpu: cpuEnd - m.cpu, heap: heapEnd.Sub(m.heap)}
	if len(entries) != sc.Cycles+1 {
		tally.Check(false, "sim run: %d timeline stamps, want %d", len(entries), sc.Cycles+1)
		return simRun{}, fmt.Errorf("timeline")
	}
	r.setup = entries[0].At.Sub(start)
	r.wall = entries[len(entries)-1].At.Sub(entries[0].At)
	runID := tr.NewID()
	tr.Record(trace, runID, "scenario.setup", start, entries[0].At)
	for i := 1; i < len(entries); i++ {
		r.gaps = append(r.gaps, msOf(entries[i].At.Sub(entries[i-1].At)))
		tr.Record(trace, runID, fmt.Sprintf("scenario.cycle %d", entries[i].Cycle), entries[i-1].At, entries[i].At)
	}
	tr.RecordID(Span{Trace: trace, ID: runID, Name: "scenario.RunSimWith", Start: start, End: end})

	// Correctness: the estimate converged to the true mean and no node
	// was lost.
	final := res.Final()
	var problems []string
	if final.RelError > simMaxRelError {
		problems = append(problems, fmt.Sprintf("final relative error %.3g > %g", final.RelError, simMaxRelError))
	}
	for _, row := range res.PerCycle {
		if row.Alive != sc.N {
			problems = append(problems, fmt.Sprintf("cycle %d: alive %d != %d", row.Cycle, row.Alive, sc.N))
			break
		}
	}
	for _, row := range res.PerCycle {
		r.messages = append(r.messages, row.Messages)
		r.exchanges += row.Messages
		if row.Cycle > 0 {
			r.nodeCycles += float64(row.Alive)
		}
	}
	tally.Check(len(problems) == 0, "sim run: %v", problems)
	if r.nodeCycles == 0 || r.wall <= 0 {
		return simRun{}, fmt.Errorf("empty run")
	}
	return r, nil
}

// sameMessages reports whether two runs of one seed logged identical
// per-cycle message counts.
func sameMessages(a, b simRun) bool { return slices.Equal(a.messages, b.messages) }
