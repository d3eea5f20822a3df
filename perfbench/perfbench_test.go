package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestAttribute(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // innermost first
		want  string
	}{
		{"gc worker wins over a module frame", []string{
			"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker",
		}, "gc"},
		{"mark assist inside module code is gc", []string{
			"runtime.gcAssistAlloc", "runtime.mallocgc", "antientropy/internal/wire.(*reader).str",
		}, "gc"},
		{"innermost module frame", []string{
			"slices.pdqsortOrdered[...]", "slices.Sort[...]", "antientropy/internal/overlay.(*Table).Exchange",
			"antientropy/internal/parsim.(*Engine).step", "antientropy/internal/scenario.RunSimWith",
		}, "overlay"},
		{"runtime leaf under a module frame", []string{
			"runtime.memmove", "antientropy/internal/wire.Encode", "antientropy/internal/agent.(*Node).send",
		}, "wire"},
		{"closure of a module package", []string{
			"antientropy/internal/transport.(*UDPMux).readLoop.func1",
		}, "transport"},
		{"unlisted module package goes to other", []string{
			"antientropy/internal/stats.(*RNG).Uint64", "antientropy/internal/parsim.(*Engine).step",
		}, "other"},
		{"benchmark code", []string{
			"net/http.(*Client).Do", "main.(*serveClient).do",
		}, "bench"},
		{"net/http without module frames", []string{
			"syscall.Syscall", "net.(*conn).Read", "net/http.(*persistConn).readLoop",
		}, "nethttp"},
		{"server handler counts as its module", []string{
			"encoding/json.Marshal", "antientropy/internal/serve.(*API).estimate", "net/http.(*conn).serve",
		}, "serve"},
		{"nothing else is runtime", []string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime"},
		{"empty stack", nil, "runtime"},
	}
	for _, c := range cases {
		if got := Attribute(c.stack); got != c.want {
			t.Errorf("%s: Attribute = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCPUBreakdownSortShare(t *testing.T) {
	var b CPUBreakdown
	b.Add([]string{"slices.insertionSortOrdered[...]", "slices.pdqsortOrdered[...]", "slices.Sort[...]",
		"antientropy/internal/overlay.(*Table).Exchange"}, 30)
	b.Add([]string{"antientropy/internal/overlay.(*Table).Exchange"}, 70)
	// A sort under a different module, reached through the overlay, is
	// that module's and not the overlay's.
	b.Add([]string{"slices.Sort[...]", "antientropy/internal/wire.Encode",
		"antientropy/internal/overlay.(*Table).Exchange"}, 50)
	// slices helpers that do not sort are not sorting.
	b.Add([]string{"slices.Index[...]", "antientropy/internal/overlay.(*Table).Exchange"}, 10)
	if b.TotalNS != 160 || b.LayerNS["overlay"] != 110 || b.LayerNS["wire"] != 50 {
		t.Fatalf("layers = %v total %d", b.LayerNS, b.TotalNS)
	}
	if b.OverlaySortNS != 30 || b.SortNS != 80 {
		t.Fatalf("overlay sort %d, all sort %d; want 30, 80", b.OverlaySortNS, b.SortNS)
	}
}

func TestCPUBreakdownClientShare(t *testing.T) {
	var b CPUBreakdown
	b.Add([]string{"syscall.Syscall", "net.(*conn).Write", "net/http.(*persistConn).writeLoop"}, 20)
	b.Add([]string{"net/http.(*Transport).roundTrip", "net/http.send", "net/http.(*Client).Do"}, 5)
	b.Add([]string{"syscall.Syscall", "net.(*conn).Read", "net/http.(*conn).serve"}, 40)
	b.Add([]string{"antientropy/internal/serve.(*API).estimate", "net/http.(*conn).serve"}, 30)
	if b.LayerNS["nethttp"] != 65 || b.ClientNS != 25 {
		t.Fatalf("nethttp %d ns, client %d ns; want 65, 25", b.LayerNS["nethttp"], b.ClientNS)
	}
}

// TestServeSchedule checks the open-loop stream: it derives from the
// seed alone, is sorted, reads every instance about once per servePoll,
// and spaces the feeds to one instance far enough apart that each can
// show before the next.
func TestServeSchedule(t *testing.T) {
	const window = 30 * time.Second
	a, b := serveSchedule(5, window), serveSchedule(5, window)
	if len(a) != len(b) {
		t.Fatalf("same seed, %d vs %d requests", len(a), len(b))
	}
	for i := range a {
		if a[i].due != b[i].due || a[i].instance != b[i].instance || a[i].mean != b[i].mean {
			t.Fatalf("same seed, request %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if c := serveSchedule(6, window); len(c) == len(a) && c[0].due == a[0].due && c[len(c)-1].due == a[len(a)-1].due {
		t.Errorf("seeds 5 and 6 gave the same stream")
	}
	reads := map[int]int{}
	lastFeed := map[int]time.Duration{}
	for i, r := range a {
		if i > 0 && r.due < a[i-1].due {
			t.Fatalf("request %d due %v before its predecessor's %v", i, r.due, a[i-1].due)
		}
		if r.due < 0 || r.due >= window {
			t.Fatalf("request %d due %v outside the window", i, r.due)
		}
		if !r.feed {
			reads[r.instance]++
			continue
		}
		if r.instance >= serveAverage || len(r.values) != serveFleet {
			t.Fatalf("feed %+v: not an AVERAGE instance or not %d values", r, serveFleet)
		}
		if last, ok := lastFeed[r.instance]; ok && r.due-last < 2*serveEpoch {
			t.Errorf("instance %d fed at %v and again at %v", r.instance, last, r.due)
		}
		lastFeed[r.instance] = r.due
	}
	want := int(window / servePoll)
	for i := 0; i < serveAverage+serveCount; i++ {
		if reads[i] < want-1 || reads[i] > want {
			t.Errorf("instance %d read %d times, want ~%d", i, reads[i], want)
		}
	}
	if len(lastFeed) != serveAverage {
		t.Errorf("%d AVERAGE instances fed, want %d", len(lastFeed), serveAverage)
	}
}

// TestParseCPUProfile decodes a real runtime/pprof profile of a busy
// loop in this package and finds the samples under the bench layer.
func TestParseCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := ReadCPUProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.TotalNS == 0 {
		t.Skip("no samples taken")
	}
	if b.LayerNS["bench"]*2 < b.TotalNS {
		t.Fatalf("bench layer %d ns of %d total; the spin loop should dominate (%v)", b.LayerNS["bench"], b.TotalNS, b.LayerNS)
	}
}

var spinSink float64

func spin(d time.Duration) {
	end := time.Now().Add(d)
	x := 1.0
	for time.Now().Before(end) {
		for i := 0; i < 1000; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	spinSink = x
}

func TestSufficient(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, {999, 0.99, false}, {100, 0.9, true}, {99, 0.9, false},
		{90, 0.9, false}, {20, 0.5, true}, {19, 0.5, false}, {0, 0.5, false},
	}
	for _, c := range cases {
		if got := Sufficient(c.n, c.q); got != c.want {
			t.Errorf("Sufficient(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	samples := make([]float64, 1000)
	for i := range samples {
		samples[len(samples)-1-i] = float64(i) // reversed: Quantile sorts
	}
	p := Quantile(samples, 0.5)
	if !p.OK || p.N != 1000 || math.Abs(p.Value-499.5) > 1e-9 {
		t.Fatalf("p50 = %+v", p)
	}
	p = Quantile(samples, 0.99)
	if !p.OK || math.Abs(p.Value-989.01) > 1e-9 {
		t.Fatalf("p99 = %+v", p)
	}
	if p := Quantile(samples[:999], 0.99); p.OK {
		t.Fatalf("p99 of 999 samples reported as sufficient: %+v", p)
	}
	if p := Quantile(nil, 0.5); p.OK || p.N != 0 {
		t.Fatalf("empty = %+v", p)
	}
}

func TestInsufficientPrintsNoNumber(t *testing.T) {
	rep := newReport(false)
	rep.SetP("feed_p99_ms", Quantile(make([]float64, 500), 0.99), 1)
	got := formatMetric(rep.Metrics, MetricDef{"feed_p99_ms", "ms"})
	if got != "insufficient (n=500)" {
		t.Fatalf("formatMetric = %q", got)
	}
	if s := fmtPercentile(Quantile(make([]float64, 50), 0.99), 1, "ms"); strings.ContainsAny(s, "0123456789.") && !strings.HasPrefix(s, "insufficient") {
		t.Fatalf("fmtPercentile = %q", s)
	}
}

func TestHistQuantile(t *testing.T) {
	bounds := []float64{1, 2, 4}
	counts := []int64{0, 1000, 0, 0} // all in (1, 2]
	p := HistQuantile(bounds, counts, 0.5)
	if !p.OK || math.Abs(p.Value-1.5) > 1e-9 {
		t.Fatalf("p50 = %+v", p)
	}
	counts = []int64{10, 10, 0, 5} // tail in +Inf reads as the last bound
	if p := HistQuantile(bounds, counts, 0.99); p.Value != 4 || p.OK {
		t.Fatalf("p99 = %+v", p)
	}
}

func TestScrapeHist(t *testing.T) {
	text := []byte(`# TYPE h histogram
h_bucket{le="0.5"} 2
h_bucket{le="1"} 5
h_bucket{le="+Inf"} 6
h_sum 3.5
h_count 6
c_total 7
`)
	s := ParseScrape(text)
	bounds, counts, sum := s.Hist("h")
	if len(bounds) != 2 || bounds[1] != 1 || len(counts) != 3 || counts[0] != 2 || counts[1] != 3 || counts[2] != 1 || sum != 3.5 {
		t.Fatalf("Hist = %v %v %v", bounds, counts, sum)
	}
	if s["c_total"] != 7 {
		t.Fatalf("counter = %v", s["c_total"])
	}
}

func TestTallyFailFrac(t *testing.T) {
	var tally Tally
	ctx := context.Background()
	if err := tally.Bounded(ctx, time.Second, "ok", func(context.Context) error { return nil }); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := tally.Bounded(ctx, time.Second, "stub", func(context.Context) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("error stub: %v", err)
	}
	// A hang that ignores its context is abandoned after the bound plus
	// the grace period and counted as a failure.
	release := make(chan struct{})
	defer close(release)
	start := time.Now()
	err := tally.Bounded(ctx, 50*time.Millisecond, "hang", func(context.Context) error {
		<-release
		return nil
	})
	if !errors.Is(err, ErrHang) {
		t.Fatalf("hang stub: %v", err)
	}
	if d := time.Since(start); d > hangGrace+time.Second {
		t.Fatalf("hang stub took %v to be abandoned", d)
	}
	// A hang that honours its context reports both.
	err = tally.Bounded(ctx, 50*time.Millisecond, "ctx", func(ctx context.Context) error {
		<-ctx.Done()
		return ctx.Err()
	})
	if !errors.Is(err, ErrHang) || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("context-aware hang: %v", err)
	}
	attempted, failed, reasons := tally.Counts()
	if attempted != 4 || failed != 3 || len(reasons) != 3 {
		t.Fatalf("attempted %d failed %d reasons %q", attempted, failed, reasons)
	}
	if got := tally.FailFrac(); got != 0.75 {
		t.Fatalf("fail_frac = %v, want 0.75", got)
	}
	if !tally.Correct() {
		t.Fatal("no check failed, yet output marked incorrect")
	}
	tally.Check(false, "estimate %v off", 1.5)
	if tally.Correct() || tally.FailFrac() != 1 {
		t.Fatalf("after a failed check: correct=%v fail_frac=%v", tally.Correct(), tally.FailFrac())
	}
}

// TestResultLine runs a stub workload through the command and checks
// the contract of the last output line: the failure shows in the
// counts, and a failed check makes the output incorrect.
func TestResultLine(t *testing.T) {
	saved := workloads
	defer func() { workloads = saved }()
	workloads = []Workload{{Name: "stub", Run: func(ctx context.Context, cfg RunConfig, rep *Report) {
		_ = rep.Tally.Bounded(ctx, time.Second, "stub run", func(context.Context) error { return errors.New("exploded") })
		rep.Tally.Op(nil)
		rep.Tally.Check(false, "wrong answer")
		for _, d := range Gated {
			rep.Set(d.Name, 1)
		}
	}}}
	dir := t.TempDir()
	wd, _ := os.Getwd()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var out bytes.Buffer
	if code := run([]string{"--workload", "stub", "--seed", "3", "--seconds", "1", "--trace", "0"}, &out); code != 0 {
		t.Fatalf("exit %d: %s", code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	last := lines[len(lines)-1]
	for _, want := range []string{`"correct":false`, `"attempted":2`, `"failed":2`, `"setup_s":{"value":1,"unit":"s"}`} {
		if !strings.Contains(last, want) {
			t.Errorf("result line %s lacks %s", last, want)
		}
	}
	if !strings.Contains(out.String(), "FAIL stub run: exploded") || !strings.Contains(out.String(), "fail_frac                1 frac") {
		t.Errorf("report lacks the failure:\n%s", out.String())
	}
	if code := run([]string{"--workload", "nope"}, &out); code == 0 {
		t.Fatal("unknown workload accepted")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the command in step: the
// gated end-to-end metrics and the per-layer metrics are the ones the
// command prints, with the same units, and every listed workload runs.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to perfbench: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []MetricDef `json:"end_to_end"`
		PerLayer  []MetricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []MetricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d printed", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %v, the command prints %v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, Gated)
	same("per_layer", doc.PerLayer, PerLayer)
	for _, w := range doc.Workloads {
		found := false
		for _, known := range workloads {
			found = found || known.Name == w.Name
		}
		if !found || len(w.Why) > 200 {
			t.Errorf("workload %q: known=%v, why is %d characters", w.Name, found, len(w.Why))
		}
	}
}
