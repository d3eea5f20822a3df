package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"antientropy/internal/obs"
	"antientropy/internal/serve"
)

// Serve workload parameters. The instances run at the API defaults
// (16 nodes, 1000 ms epoch, 50 ms cycle).
const (
	serveAverage = 24
	serveCount   = 8
	serveFleet   = 16
	serveCycle   = 50 * time.Millisecond
	serveEpoch   = time.Second
	// servePoll is how often the client reads each instance's estimate:
	// once per cycle, the fastest an estimate can change.
	servePoll = serveCycle
	// serveFeedEvery is how often each AVERAGE instance is fed new
	// values. A feed is sampled at the next epoch restart and has
	// converged within that epoch, so it shows within two epochs. With
	// up to one epoch of jitter, feeds to one instance stay more than
	// two epochs apart, and none is overwritten before it can show.
	serveFeedEvery = 3 * serveEpoch
	// serveConns bounds the client's keep-alive connections.
	serveConns = 2
	// serveInFlight bounds the requests the generator has outstanding;
	// when it is reached the generator waits, and runs late.
	serveInFlight = 256
	// serveSetups is how many times a pass creates the instance set;
	// the last one stays up for the load. One set-up takes ~30 ms of
	// CPU, and single ones vary by ±20%, so the median needs many.
	serveSetups = 100
	// serveSlices splits the timed window; the CPU cost is the median
	// over the slices, so one transient stall moves it little.
	serveSlices        = 6
	serveWarmup        = 5 * serveEpoch
	serveSettle        = 3 * serveEpoch
	serveClientTimeout = 2 * time.Second
	// freshTolerance is how close a converged estimate must be to the
	// fed mean; countTolerance how close a COUNT estimate must be to
	// the fleet size.
	freshTolerance = 0.01
	countTolerance = 0.10
)

type request struct {
	due      time.Duration // offset from the window start
	feed     bool
	instance int
	values   []float64 // feeds only
	mean     float64
}

// serveSchedule draws the open-loop stream from the seed. Every
// instance's estimate is read once per servePoll, at a seeded phase and
// with a seeded jitter of up to a tenth of the period. Every AVERAGE
// instance is fed 16 new values (around a log-uniform mean in
// [10, 1000]) once per serveFeedEvery, with a jitter of up to one epoch,
// so where a feed falls inside its epoch is drawn afresh for each feed.
// The stream is sorted by due time.
func serveSchedule(seed uint64, window time.Duration) []request {
	rng := rand.New(rand.NewPCG(seed, 0x73657276652d6d78)) // "serve-mx"
	var out []request
	periodic := func(period, jitter time.Duration, r request, draw func(*request)) {
		phase := time.Duration(rng.Int64N(int64(period)))
		for at := phase; ; at += period {
			due := at + time.Duration(rng.Int64N(int64(jitter)))
			if due >= window {
				return
			}
			r.due = due
			if draw != nil {
				draw(&r)
			}
			out = append(out, r)
		}
	}
	for i := 0; i < serveAverage+serveCount; i++ {
		periodic(servePoll, servePoll/10, request{instance: i}, nil)
	}
	for i := 0; i < serveAverage; i++ {
		periodic(serveFeedEvery, serveEpoch, request{instance: i, feed: true}, func(r *request) {
			r.values, r.mean = feedValues(rng)
		})
	}
	slices.SortStableFunc(out, func(a, b request) int { return cmp.Compare(a.due, b.due) })
	return out
}

// feedValues draws one feed: a mean, then one value per node spread
// ±50% around it. It returns the values and their exact mean.
func feedValues(rng *rand.Rand) ([]float64, float64) {
	m := 10 * math.Pow(100, rng.Float64())
	vals := make([]float64, serveFleet)
	sum := 0.0
	for i := range vals {
		vals[i] = m * (0.5 + rng.Float64())
		sum += vals[i]
	}
	return vals, sum / float64(len(vals))
}

func instanceName(i int) string {
	if i < serveAverage {
		return fmt.Sprintf("avg-%02d", i)
	}
	return fmt.Sprintf("cnt-%02d", i-serveAverage)
}

// serveClient is the load generator's HTTP side, with the accounting
// every request shares.
type serveClient struct {
	base   string
	http   *http.Client
	tally  *Tally
	tracer *Tracer

	mu        sync.Mutex
	status5xx int
}

// do sends one request and counts it as one operation.
func (c *serveClient) do(ctx context.Context, method, path string, body any, out any) error {
	err := c.send(ctx, method, path, body, out)
	c.tally.Op(err)
	return err
}

// send sends one request without counting it: a transport error, a
// timeout, a non-2xx status or an undecodable body is an error. The
// body is decoded into out when given.
func (c *serveClient) send(ctx context.Context, method, path string, body any, out any) error {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err == nil && (resp.StatusCode < 200 || resp.StatusCode > 299) {
		if resp.StatusCode >= 500 {
			c.mu.Lock()
			c.status5xx++
			c.mu.Unlock()
		}
		err = fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if err == nil && out != nil {
		if err = json.Unmarshal(raw, out); err != nil {
			err = fmt.Errorf("%s %s: status %d, body %q: %w", method, path, resp.StatusCode, raw, err)
		}
	}
	return err
}

// freshness matches feeds to the first later estimate that reports the
// instance converged to the fed mean.
type freshness struct {
	mu         sync.Mutex
	pending    map[int][]pendingFeed
	fresh      []float64 // seconds
	superseded int
}

type pendingFeed struct {
	replied time.Time
	mean    float64
}

func (f *freshness) fed(instance int, replied time.Time, mean float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pending[instance] = append(f.pending[instance], pendingFeed{replied, mean})
}

// observed folds in one estimate response for an instance, sent at
// sent and received at got. The newest pending feed the estimate
// matches is fresh; the feeds before it were superseded.
func (f *freshness) observed(instance int, est serve.Estimate, sent, got time.Time) {
	if !est.Converged {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	p := f.pending[instance]
	for i := len(p) - 1; i >= 0; i-- {
		if sent.After(p[i].replied) && relErr(est.Estimate, p[i].mean) <= freshTolerance {
			f.fresh = append(f.fresh, got.Sub(p[i].replied).Seconds())
			f.superseded += i
			f.pending[instance] = append(p[:0], p[i+1:]...)
			return
		}
	}
}

func relErr(got, want float64) float64 {
	scale := math.Abs(want)
	if scale < 1e-12 {
		scale = 1
	}
	return math.Abs(got-want) / scale
}

func runServe(ctx context.Context, cfg RunConfig, rep *Report) {
	quiet := slog.New(slog.DiscardHandler)
	reg := serve.NewRegistry(serve.RegistryConfig{Logger: quiet})
	defer reg.Close()
	metricsReg := obs.NewRegistry()
	tenants, err := serve.NewTenants(nil)
	if err != nil {
		rep.Tally.Op(err)
		return
	}
	api := serve.NewAPI(serve.APIConfig{
		Registry: reg, Tenants: tenants, Metrics: serve.NewMetrics(metricsReg), Logger: quiet,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rep.Tally.Op(err)
		return
	}
	srv := &http.Server{Handler: api, ReadHeaderTimeout: 5 * time.Second}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // returns http.ErrServerClosed at Shutdown
	}()
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(sctx)
		<-served
	}()
	transport := &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns}
	defer transport.CloseIdleConnections()
	c := &serveClient{
		base:   "http://" + ln.Addr().String(),
		http:   &http.Client{Transport: transport, Timeout: serveClientTimeout},
		tally:  rep.Tally,
		tracer: cfg.Tracer,
	}
	n := serveAverage + serveCount

	// Set up the instance set several times; the last stays up. setup_s
	// is the process CPU a set-up takes. Its wall time moves with the
	// host's steal, which the kernel does not charge as process CPU.
	var setups, setupWalls []float64
	for i := 0; i < serveSetups; i++ {
		cpu0 := cpuTime()
		d, err := serveSetup(ctx, c, n)
		if err != nil {
			rep.Note("set-up %d: %v", i, err)
			return
		}
		setups = append(setups, (cpuTime() - cpu0).Seconds())
		setupWalls = append(setupWalls, d.Seconds())
		if i == serveSetups-1 {
			break
		}
		for j := 0; j < n; j++ {
			if err := c.do(ctx, http.MethodDelete, "/v1/instances/"+instanceName(j), nil, nil); err != nil {
				return
			}
		}
	}
	rep.SetN("setup_s", Median(setups), len(setups))
	rep.SetN("serve.setup_wall_s", Median(setupWalls), len(setupWalls))

	// Give every AVERAGE instance a first value set, then let the fleets
	// converge on it before the load starts.
	fresh := &freshness{pending: map[int][]pendingFeed{}}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x696e6974)) // "init"
	lastMean := make([]float64, serveAverage)
	lastVals := make([][]float64, serveAverage)
	for i := 0; i < serveAverage; i++ {
		vals, mean := feedValues(rng)
		if err := c.do(ctx, http.MethodPost, "/v1/instances/"+instanceName(i)+"/values",
			map[string]any{"values": vals}, nil); err != nil {
			return
		}
		lastMean[i], lastVals[i] = mean, vals
	}
	time.Sleep(serveWarmup)

	// The timed window: the open-loop stream.
	window := time.Duration(cfg.Seconds) * time.Second
	schedule := serveSchedule(cfg.Seed, window)
	slice := window / serveSlices
	var (
		mu              sync.Mutex
		estLat, feedLat []float64
		late            []float64
		sliceCPU        []time.Duration
		sliceAt         []time.Time
	)
	for _, r := range schedule {
		if r.feed {
			lastMean[r.instance], lastVals[r.instance] = r.mean, r.values
		}
	}
	countInsts := make([]*serve.Instance, serveCount)
	for i := range countInsts {
		if countInsts[i], err = reg.Get(instanceName(serveAverage + i)); err != nil {
			rep.Tally.Op(err)
			return
		}
	}
	var noEstimate atomic.Int64
	handler0 := ScrapeRegistry(metricsReg)
	stopProfile := startProfile(cfg, filepath.Join(cfg.OutDir, "serve.cpu.pprof"))
	win := StartWindow()
	start := time.Now()
	sem := make(chan struct{}, serveInFlight)
	var wg sync.WaitGroup
	sliceCPU, sliceAt = append(sliceCPU, cpuTime()), append(sliceAt, start)
	for _, r := range schedule {
		if r.due >= time.Duration(len(sliceAt))*slice {
			sliceCPU, sliceAt = append(sliceCPU, cpuTime()), append(sliceAt, time.Now())
		}
		due := start.Add(r.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		late = append(late, msOf(time.Since(due)))
		wg.Add(1)
		go func(r request, due time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			trace := c.tracer.NewID()
			sent := time.Now()
			name := instanceName(r.instance)
			var err error
			var est serve.Estimate
			span := "http.estimate"
			switch {
			case r.feed:
				span = "http.feed"
				err = c.do(ctx, http.MethodPost, "/v1/instances/"+name+"/values", map[string]any{"values": r.values}, nil)
			case r.instance < serveAverage:
				err = c.do(ctx, http.MethodGet, "/v1/instances/"+name+"/estimate", nil, &est)
			default:
				// COUNT instances are read without HTTP: in an epoch
				// without a leader, their GET answers 200 with an empty
				// body (see BENCHMARK.md). The read still counts the
				// estimates the GET could not have delivered.
				span = "serve.Instance.Estimate"
				est = countInsts[r.instance-serveAverage].Estimate()
				c.tally.Op(nil)
				if !est.OK {
					noEstimate.Add(1)
				}
			}
			got := time.Now()
			if c.tracer != nil {
				root := c.tracer.NewID()
				c.tracer.Record(trace, root, span, sent, got)
				c.tracer.RecordID(Span{Trace: trace, ID: root, Name: "gen.request " + span, Start: due, End: got})
			}
			if err != nil || r.instance >= serveAverage {
				return
			}
			if r.feed {
				fresh.fed(r.instance, got, r.mean)
			} else {
				fresh.observed(r.instance, est, sent, got)
			}
			mu.Lock()
			defer mu.Unlock()
			if r.feed {
				feedLat = append(feedLat, msOf(got.Sub(due)))
			} else {
				estLat = append(estLat, msOf(got.Sub(due)))
			}
		}(r, due)
	}
	wg.Wait()
	win.Stop()
	sliceCPU, sliceAt = append(sliceCPU, cpuTime()), append(sliceAt, time.Now())
	cpuProfile, profErr := stopProfile()
	if profErr != nil {
		rep.Note("cpu profile: %v", profErr)
	}
	handler1 := ScrapeRegistry(metricsReg)

	nodeCycles := float64(n*serveFleet) * win.Wall.Seconds() / serveCycle.Seconds()
	var cpuPerNC []float64
	for k := 1; k < len(sliceAt); k++ {
		nc := float64(n*serveFleet) * sliceAt[k].Sub(sliceAt[k-1]).Seconds() / serveCycle.Seconds()
		cpuPerNC = append(cpuPerNC, float64((sliceCPU[k]-sliceCPU[k-1]).Microseconds())/nc)
	}
	rep.SetN("cpu_us_per_node_cycle", Median(cpuPerNC), len(cpuPerNC))
	rep.Set("max_rss_mb", maxRSSMB())
	estP50, estP99 := Quantile(estLat, 0.5), Quantile(estLat, 0.99)
	feedP50, feedP99 := Quantile(feedLat, 0.5), Quantile(feedLat, 0.99)
	rep.SetP("estimate_p50_ms", estP50, 1)
	rep.SetP("estimate_p99_ms", estP99, 1)
	rep.SetP("feed_p50_ms", feedP50, 1)
	rep.SetP("feed_p99_ms", feedP99, 1)
	rep.SetP("gen.late_p99_ms", Quantile(late, 0.99), 1)
	fresh.mu.Lock()
	freshP50 := Quantile(fresh.fresh, 0.5)
	rep.SetP("fresh_p50_s", freshP50, 1)
	rep.SetP("result_s", freshP50, 1)
	unresolved := 0
	for _, p := range fresh.pending {
		unresolved += len(p)
	}
	rep.Set("gen.fresh_feeds", float64(len(fresh.fresh)))
	rep.Set("gen.superseded_feeds", float64(fresh.superseded))
	rep.Set("gen.pending_feeds", float64(unresolved))
	rep.Note("feeds: %d fresh, %d superseded by a later feed before converging, %d pending at the window's end",
		len(fresh.fresh), fresh.superseded, unresolved)
	fresh.mu.Unlock()
	rep.Set("serve.count_no_estimate_reads", float64(noEstimate.Load()))
	rep.Note("COUNT reads with no estimate (leaderless epochs): %d", noEstimate.Load())
	bounds, counts1, _ := handler1.Hist("agg_serve_request_seconds")
	_, counts0, _ := handler0.Hist("agg_serve_request_seconds")
	hc := HistDiff(counts1, counts0)
	rep.SetP("serve.handler_p50_ms", HistQuantile(bounds, hc, 0.5), 1e3)
	rep.SetP("serve.handler_p99_ms", HistQuantile(bounds, hc, 0.99), 1e3)
	heapPerNodeCycle(rep, win.Heap, nodeCycles)
	feeds, countReads := 0, 0
	for _, r := range schedule {
		switch {
		case r.feed:
			feeds++
		case r.instance >= serveAverage:
			countReads++
		}
	}
	rep.Note("%d requests (%d feeds, %d direct COUNT reads) over %.1f s open loop, %d instances × %d nodes; %.0f scheduled node-cycles",
		len(schedule), feeds, countReads, win.Wall.Seconds(), n, serveFleet, nodeCycles)
	if cfg.Traced() {
		layerCPU(rep, cpuProfile, nodeCycles)
		// The generator shares the process: its own code, and the client
		// side of net/http.
		rep.SetShare("gen.cpu_share", float64(cpuProfile.LayerNS["bench"]+cpuProfile.ClientNS), float64(cpuProfile.TotalNS),
			fmt.Sprintf("%.0f ms profiled", float64(cpuProfile.TotalNS)/1e6))
	}

	// Correctness, after the load stops and the fleets settle. Two
	// concurrent feeds to one instance may apply in either order, so
	// each AVERAGE instance first gets its last values again, one
	// request at a time.
	for i := 0; i < serveAverage; i++ {
		if err := c.do(ctx, http.MethodPost, "/v1/instances/"+instanceName(i)+"/values",
			map[string]any{"values": lastVals[i]}, nil); err != nil {
			return
		}
	}
	var problems []string
	settleBy := time.Now().Add(serveSettle)
	for i := 0; i < n; i++ {
		inst, err := reg.Get(instanceName(i))
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		if problem := awaitConverged(inst, i, lastMean, settleBy); problem != "" {
			problems = append(problems, problem)
		}
	}
	c.mu.Lock()
	if c.status5xx > 0 {
		problems = append(problems, fmt.Sprintf("%d responses with status 5xx", c.status5xx))
	}
	c.mu.Unlock()
	rep.Tally.Op(nil)
	rep.Tally.Check(len(problems) == 0, "serve: %v", problems)

	if cfg.Traced() {
		serveDirectCalls(reg, cfg.Tracer, rep, lastVals)
	}
}

// awaitConverged polls an instance until its estimate is converged and
// correct: an AVERAGE instance within freshTolerance of the mean it was
// last fed, a COUNT instance within countTolerance of its fleet size.
// It returns the problem if that does not happen by the deadline.
func awaitConverged(inst *serve.Instance, i int, fedMean []float64, deadline time.Time) string {
	for {
		est := inst.Estimate()
		want, tol := float64(serveFleet), countTolerance
		if i < serveAverage {
			want, tol = fedMean[i], freshTolerance
		}
		if est.Converged && relErr(est.Estimate, want) <= tol {
			return ""
		}
		if time.Now().After(deadline) {
			return fmt.Sprintf("%s: estimate %.6g (converged=%v) vs %.6g", est.Name, est.Estimate, est.Converged, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// serveSetup creates the instance set over the API and waits until
// every instance reports a first estimate; it returns that duration.
// The estimates are polled every millisecond.
func serveSetup(ctx context.Context, c *serveClient, n int) (time.Duration, error) {
	trace := c.tracer.NewID()
	root := c.tracer.NewID()
	start := time.Now()
	for i := 0; i < n; i++ {
		fn := serve.FuncAverage
		if i >= serveAverage {
			fn = serve.FuncCount
		}
		t0 := time.Now()
		if err := c.do(ctx, http.MethodPost, "/v1/instances", map[string]any{"name": instanceName(i), "function": fn}, nil); err != nil {
			return 0, err
		}
		c.tracer.Record(trace, root, "http.create "+instanceName(i), t0, time.Now())
	}
	deadline := time.Now().Add(10 * serveEpoch)
	for i := 0; i < n; i++ {
		if err := awaitFirstEstimate(ctx, c, instanceName(i), deadline, trace, root); err != nil {
			return 0, err
		}
	}
	d := time.Since(start)
	c.tracer.RecordID(Span{Trace: trace, ID: root, Name: "serve.setup", Start: start, End: start.Add(d)})
	return d, nil
}

// awaitFirstEstimate polls an instance every millisecond until it
// reports an estimate, and counts the wait as one operation, so the
// operation count does not depend on how many polls it took. The wait
// fails if a poll fails (polling goes on: a failed poll reads as "no
// estimate yet") or if no estimate comes by the deadline; only the
// deadline or a cancelled ctx ends it with an error.
func awaitFirstEstimate(ctx context.Context, c *serveClient, name string, deadline time.Time, trace, root uint64) error {
	var failed error
	for {
		var est serve.Estimate
		t0 := time.Now()
		err := c.send(ctx, http.MethodGet, "/v1/instances/"+name+"/estimate", nil, &est)
		c.tracer.Record(trace, root, "http.estimate "+name, t0, time.Now())
		if err == nil && est.OK {
			c.tally.Op(failed)
			return nil
		}
		if failed == nil {
			failed = err
		}
		switch {
		case ctx.Err() != nil:
			err = ctx.Err()
		case time.Now().After(deadline):
			err = errors.New(name + ": no first estimate")
		default:
			time.Sleep(time.Millisecond)
			continue
		}
		c.tally.Op(err)
		return err
	}
}

// serveDirectCalls times the serve layer without HTTP: Instance.Estimate
// and Instance.Feed on the live instances (a feed repeats the values
// already fed, so no estimate changes) and Registry.Create on probe
// instances that are deleted again.
func serveDirectCalls(reg *serve.Registry, tr *Tracer, rep *Report, lastVals [][]float64) {
	trace := tr.NewID()
	var estUS, feedUS, createMS []float64
	insts := reg.List()
	for round := 0; round < 50; round++ {
		for _, inst := range insts {
			t0 := time.Now()
			inst.Estimate()
			t1 := time.Now()
			estUS = append(estUS, float64(t1.Sub(t0).Nanoseconds())/1e3)
			tr.Record(trace, 0, "serve.Instance.Estimate", t0, t1)
		}
	}
	for round := 0; round < 50; round++ {
		for i, vals := range lastVals {
			inst, err := reg.Get(instanceName(i))
			if err != nil {
				continue
			}
			t0 := time.Now()
			inst.Feed(vals, nil, false)
			t1 := time.Now()
			feedUS = append(feedUS, float64(t1.Sub(t0).Nanoseconds())/1e3)
			tr.Record(trace, 0, "serve.Instance.Feed", t0, t1)
		}
	}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("probe-%d", i)
		t0 := time.Now()
		_, err := reg.Create(serve.InstanceConfig{Name: name}, "")
		t1 := time.Now()
		rep.Tally.Op(err)
		if err != nil {
			continue
		}
		createMS = append(createMS, msOf(t1.Sub(t0)))
		tr.Record(trace, 0, "serve.Registry.Create", t0, t1)
		rep.Tally.Op(reg.Delete(name))
	}
	rep.SetN("serve.estimate_call_us", Median(estUS), len(estUS))
	rep.SetN("serve.feed_call_us", Median(feedUS), len(feedUS))
	rep.SetN("serve.create_ms", Median(createMS), len(createMS))
}
