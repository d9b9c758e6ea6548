package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"syscall"
	"time"
)

// config is one run's parameters.
type config struct {
	Workload string
	Seed     int64
	// Seconds is the run's nominal measured time; it sizes the phases'
	// fixed exchange counts (see phaseCounts).
	Seconds float64
	Trace   bool
	OutDir  string
	WorkDir string
	// Rep, when not negative, makes this process one repetition of a run
	// instead of the whole run (see runRep).
	Rep int
	// SetupsOnly makes this process time set-ups only (see setupOnly).
	SetupsOnly bool
}

// runOutput is a finished run: the result line plus the stamp and notes
// printed before it.
type runOutput struct {
	report report
	lines  []string
}

const (
	// openPerRep is each repetition's open-loop sample count: its p99
	// has ten samples beyond it. A run sets a fresh system up for every
	// repetition, in a fresh process, and drives it through warm-up, open
	// loop and closed loop. The hubs keep every exchange for their
	// lifetime, so the heap, and with it GC cost and the latency tail,
	// grows with every exchange a hub has run: repetitions of one fixed
	// size give every sample the same history, and the run reports medians
	// over them.
	openPerRep = 1000
	// closedWindow is the closed loop's number of outstanding requests.
	closedWindow = 64
	// An untraced run times set-ups in setupProcs fresh processes of their
	// own, spread between its repetitions. Each sets the workload up
	// setupWarm times without load and drops those times (the first
	// set-ups run cold code on a fresh heap), then setupReps more times,
	// and keeps their median. setup_s is the mean of the processes'
	// medians. A sub-millisecond set-up runs in a fast or a slow mode that
	// is fixed for a process's lifetime and differs by up to half from one
	// process to the next, so the median over all samples jumped between
	// the modes with the share of slow processes; their mean moves with
	// that share smoothly.
	setupProcs = 40
	setupWarm  = 5
	setupReps  = 10
	// lagBoundMS is the generator-lateness bound: a repetition whose
	// loadgen.lag_p99_ms exceeds it measured the harness and is flagged.
	lagBoundMS = 10.0
)

// outcome is one request's timing and result.
type outcome struct {
	due, end time.Time
	res      result
}

// phaseSizes are a run's repetition count and each repetition's fixed
// exchange counts.
type phaseSizes struct{ reps, warm, open, closed int }

// phaseCounts sizes a run. A repetition warms up with a fifth of its
// open-loop count and runs three times as many exchanges closed-loop as
// open-loop; at about 3.5 times the offered rate in the closed loop, plus
// process start, set-ups and collections, it takes about twice its open
// loop, so a run of the nominal seconds has seconds*rate/(2*openPerRep)
// repetitions.
func phaseCounts(w workload, seconds float64) phaseSizes {
	reps := int(math.Max(1, math.Round(seconds*w.rate/(2*openPerRep))))
	return phaseSizes{reps: reps, warm: openPerRep / 5, open: openPerRep, closed: 3 * openPerRep}
}

// repResult is what one repetition reports to its run.
type repResult struct {
	// Attempted and Failed count both measured phases; OpenFailed the open
	// loop alone.
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	OpenFailed int      `json:"open_failed"`
	Failures   []string `json:"failures,omitempty"`
	// Values are the repetition's end-to-end measurements, plus
	// loadgen.lag_p99_ms.
	Values map[string]float64 `json:"values"`
	// Layers are a traced repetition's per-layer metrics, without the ones
	// the run derives from all repetitions together (cpu_share.*,
	// trace_overhead).
	Layers map[string]metric `json:"layers,omitempty"`
}

// run drives one workload, each repetition in a fresh child process
// (runRep), and reports the medians over the repetitions. An untraced run
// also times set-ups in child processes of their own, before each
// repetition.
func run(cfg config) (*runOutput, error) {
	w, err := lookupWorkload(cfg.Workload)
	if err != nil {
		return nil, err
	}
	if cfg.Seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	sz := phaseCounts(w, cfg.Seconds)
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, err
	}

	out := &runOutput{}
	out.lines = append(out.lines,
		fmt.Sprintf("hubbench workload=%s seed=%d trace=%v", w.name, cfg.Seed, cfg.Trace),
		"host: "+hostStamp(),
		fmt.Sprintf("run: %d repetitions, each in a fresh process, x (warmup=%d open=%d closed=%d exchanges); offered rate %.0f ex/s (open loop); window %d outstanding (closed loop); senders 1, connections %d",
			sz.reps, sz.warm, sz.open, sz.closed, w.rate, closedWindow, runtime.NumCPU()))

	var refCPU float64
	var setupMedians []float64
	if cfg.Trace {
		// The untraced reference runs first, in its own processes, so the
		// two never share a heap or the CPUs.
		if refCPU, err = childReference(cfg); err != nil {
			return nil, fmt.Errorf("untraced reference run: %w", err)
		}
		if err := os.MkdirAll(resultDir(cfg), 0o755); err != nil {
			return nil, err
		}
	}

	var reps []*repResult
	for rep := 0; rep < sz.reps; rep++ {
		// The set-up processes before repetition rep bring their count to
		// rep+1 shares of setupProcs.
		for !cfg.Trace && len(setupMedians) < (rep+1)*setupProcs/sz.reps {
			times, err := childSetups(cfg)
			if err != nil {
				return nil, fmt.Errorf("set-up timing: %w", err)
			}
			setupMedians = append(setupMedians, median(times))
		}
		r, err := childRep(cfg, rep)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", rep, err)
		}
		reps = append(reps, r)
	}

	attempted, failed, openFailed := 0, 0, 0
	var failures []string
	values := map[string][]float64{}
	for rep, r := range reps {
		attempted += r.Attempted
		failed += r.Failed
		openFailed += r.OpenFailed
		failures = append(failures, r.Failures...)
		for name, v := range r.Values {
			values[name] = append(values[name], v)
		}
		if lag := r.Values["loadgen.lag_p99_ms"]; lag > lagBoundMS {
			out.lines = append(out.lines, fmt.Sprintf("FLAG: repetition %d: loadgen.lag_p99_ms %.3f exceeds the %.1f ms bound: it measured the harness", rep, lag, lagBoundMS))
		}
	}
	out.report = report{Correct: len(failures) == 0, Attempted: attempted, Failed: failed}
	out.lines = append(out.lines,
		fmt.Sprintf("latency samples: %d open-loop requests, %d per repetition (%d failed or refused, counted beyond any limit)", sz.reps*sz.open, sz.open, openFailed),
		fmt.Sprintf("error_rate %.6g ratio (%d failed of %d attempted, both phases)", float64(failed)/float64(attempted), failed, attempted))
	for _, f := range failures {
		out.lines = append(out.lines, "CHECK FAILED: "+f)
	}
	if !out.report.Correct {
		out.report.Metrics = map[string]metric{}
		return out, nil
	}
	out.lines = append(out.lines, "checks: all passed")
	if cfg.Trace {
		if out.report.Metrics, err = tracedMetrics(cfg, reps, values, refCPU); err != nil {
			return nil, err
		}
		return out, writeResults(cfg, out)
	}
	for _, name := range []string{"latency_p50_ms", "latency_p99_ms", "capacity_ex_s"} {
		out.lines = append(out.lines, fmt.Sprintf("%s per repetition: %.4g", name, values[name]))
	}
	out.lines = append(out.lines, fmt.Sprintf("setup_s: mean of the median set-up of %d processes (%d set-ups each, after %d warm-up ones); process medians min %.4g, quartiles %.4g, max %.4g",
		len(setupMedians), setupReps, setupWarm, percentile(setupMedians, 0), quartiles(setupMedians), percentile(setupMedians, 1)))
	// The p99 and the capacity are printed but not bounded: on wire-durable
	// their medians over a run's repetitions spread by up to 0.40 and 0.29
	// of themselves from run to run on a 2-vCPU host, more than a bound may
	// allow (see README.md).
	out.lines = append(out.lines,
		fmt.Sprintf("latency_p99_ms %.6g ms (median over repetitions; not a bounded metric)", median(values["latency_p99_ms"])),
		fmt.Sprintf("capacity_ex_s %.6g ex/s (median over repetitions; not a bounded metric)", median(values["capacity_ex_s"])))
	out.report.Metrics = map[string]metric{"setup_s": {mean(setupMedians), "s"}}
	for _, e := range endToEnd[1:] {
		out.report.Metrics[e.name] = metric{median(values[e.name]), e.unit}
	}
	return out, nil
}

// endToEnd lists the bounded end-to-end metrics with their units. setup_s
// is timed in processes of its own (see setupProcs); the rest are measured
// per repetition and reported as the median over them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"cpu_us_per_ex", "us"},
	{"allocs_per_ex", "count"},
	{"alloc_bytes_per_ex", "B"},
	{"retained_bytes_per_ex", "B"},
}

// setupOnly sets the workload up setupWarm+setupReps times without load,
// each after a forced collection, and returns the last setupReps set-up
// times in seconds. It runs in a process of its own.
func setupOnly(cfg config) ([]float64, error) {
	w, err := lookupWorkload(cfg.Workload)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.WorkDir, "setup-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var times []float64
	for k := 0; k < setupWarm+setupReps; k++ {
		runtime.GC()
		start := time.Now()
		rg, err := w.setup(setupEnv{dir: dir})
		if k >= setupWarm {
			times = append(times, time.Since(start).Seconds())
		}
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if err := rg.close(nil); err != nil {
			return nil, fmt.Errorf("setup teardown: %w", err)
		}
	}
	return times, nil
}

// tracedMetrics are a traced run's per-layer metrics: the median over the
// repetitions of each one they measured, the CPU shares of all their
// profiles merged, and the trace overhead against the untraced reference.
func tracedMetrics(cfg config, reps []*repResult, values map[string][]float64, refCPU float64) (map[string]metric, error) {
	m := map[string]metric{}
	perName := map[string][]float64{}
	for _, r := range reps {
		for name, v := range r.Layers {
			perName[name] = append(perName[name], v.Value)
		}
	}
	for name, vs := range perName {
		m[name] = metric{median(vs), reps[0].Layers[name].Unit}
	}
	profiles := make([]string, len(reps))
	for rep := range reps {
		profiles[rep] = cpuProfile(cfg, rep)
	}
	shares, err := cpuShares(profiles)
	if err != nil {
		return nil, err
	}
	for _, mod := range profileModules {
		m["cpu_share."+mod.name] = metric{shares[mod.name], "ratio"}
	}
	m["trace_overhead"] = metric{median(values["cpu_us_per_ex"])/refCPU - 1, "ratio"}
	return m, nil
}

// runner carries one repetition's state.
type runner struct {
	cfg  config
	w    workload
	tr   *tracer
	outs []outcome
	g    *gate

	lags        []float64
	acc         totals
	heapLiveEnd uint64
}

// runRep is one repetition, run in a process of its own: it generates the
// repetition's inputs, sets a fresh system up, drives it, checks it and, in
// a traced run, derives the repetition's per-layer metrics. The process
// holds no other repetition's inputs or results, so the live heap the GC
// paces itself by is the hub's own plus this repetition's inputs.
func runRep(cfg config) (*repResult, error) {
	w, err := lookupWorkload(cfg.Workload)
	if err != nil {
		return nil, err
	}
	sz := phaseCounts(w, cfg.Seconds)
	dir, err := os.MkdirTemp(cfg.WorkDir, "rep-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	reqs, err := w.inputs(cfg.Seed*10007+int64(cfg.Rep), sz.warm+sz.open+sz.closed)
	if err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	for i, r := range reqs {
		r.idx = i
	}
	x := &runner{cfg: cfg, w: w, outs: make([]outcome, len(reqs)), g: &gate{}, acc: newTotals()}
	if cfg.Trace {
		x.tr = newTracer()
	}
	runtime.GC()
	rg, err := w.setup(setupEnv{dir: dir, tr: x.tr})
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	return x.repetition(rg, reqs, sz)
}

// close drains the system, runs the gate's post-drain checks (g may be
// nil) and releases what it holds.
func (rg *rig) close(g *gate) error {
	err := rg.shutdown()
	if g != nil {
		g.checkDrained(rg)
	}
	if rg.release != nil {
		if rerr := rg.release(); rerr != nil && err == nil {
			err = rerr
		}
	}
	return err
}

// repetition drives one freshly set-up system through warm-up, the open
// loop and the closed loop, checks its outputs and shuts it down.
func (x *runner) repetition(rg *rig, reqs []*request, sz phaseSizes) (_ *repResult, err error) {
	shut := false
	defer func() {
		if !shut {
			_ = rg.close(nil) // error path: the run's error is reported instead
		}
	}()
	warm, open, closed := reqs[:sz.warm], reqs[sz.warm:sz.warm+sz.open], reqs[sz.warm+sz.open:]
	runtime.GC()
	heapBase := heapAlloc()

	openLoop(rg, warm, x.outs, x.w.rate)
	// Every repetition starts its open loop right after a collection, so
	// the GC cycles inside the phase fall at the same exchange counts.
	runtime.GC()

	traced := x.tr != nil
	before := takeSnapshot(rg, traced)
	var prof *os.File
	if traced {
		if prof, err = startProfile(cpuProfile(x.cfg, x.cfg.Rep)); err != nil {
			return nil, err
		}
		x.tr.armed.Store(true)
	}
	x.lags = openLoop(rg, open, x.outs, x.w.rate)
	if traced {
		x.tr.armed.Store(false)
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			return nil, err
		}
	}
	after := takeSnapshot(rg, traced)
	x.acc.add(before, after)

	runtime.GC()
	if traced {
		x.heapLiveEnd = heapAlloc()
	}
	closedStart := time.Now()
	closedLoop(rg, closed, x.outs, closedWindow)
	closedDur := time.Since(closedStart)

	x.g.checkResults(reqs, x.outs, rg)

	openOuts, closedOuts := x.outs[sz.warm:sz.warm+sz.open], x.outs[sz.warm+sz.open:]
	openOK, closedOK := successes(openOuts), successes(closedOuts)
	lat := latencies(openOuts)
	ok := float64(openOK)
	res := &repResult{
		Attempted:  sz.open + sz.closed,
		Failed:     sz.open + sz.closed - openOK - closedOK,
		OpenFailed: sz.open - openOK,
		Values: map[string]float64{
			"latency_p50_ms":     percentile(lat, 0.50),
			"latency_p99_ms":     percentile(lat, 0.99),
			"capacity_ex_s":      float64(closedOK) / closedDur.Seconds(),
			"cpu_us_per_ex":      us(after.cpu-before.cpu) / ok,
			"allocs_per_ex":      float64(after.mallocs-before.mallocs) / ok,
			"alloc_bytes_per_ex": float64(after.totalAlloc-before.totalAlloc) / ok,
			"loadgen.lag_p99_ms": percentile(x.lags, 0.99),
		},
	}
	// Retained heap: drop the harness's references to the results first,
	// so the live heap holds the program's state and the inputs (allocated
	// before heapBase) only. Traced runs keep the results for their
	// replays.
	if !traced {
		all := float64(successes(x.outs))
		for i := range x.outs {
			x.outs[i].res = result{err: x.outs[i].res.err}
		}
		runtime.GC()
		res.Values["retained_bytes_per_ex"] = (float64(heapAlloc()) - float64(heapBase)) / all
	}

	shut = true
	if err := rg.close(x.g); err != nil {
		x.g.fail("shutdown: %v", err)
	}
	res.Failures = x.g.failures
	if traced && len(res.Failures) == 0 {
		if res.Layers, err = perLayer(x, rg, open, openOuts); err != nil {
			return nil, err
		}
		if err := writeAllocProfile(x.cfg); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// sleepUntil blocks the calling goroutine's thread until t. A nanosleep
// wakes within tens of microseconds, where a runtime timer on an idle
// process rounds sub-millisecond waits up to the next millisecond.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// openLoop sends reqs at a fixed absolute rate from one goroutine: request
// i is due at start + i/rate whatever happened to earlier requests. Each
// request is timed from its due time. It returns the generator's lateness
// per request, in ms, and waits for every result.
func openLoop(rg *rig, reqs []*request, outs []outcome, rate float64) []float64 {
	lags := make([]float64, len(reqs))
	interval := time.Duration(float64(time.Second) / rate)
	var wg sync.WaitGroup
	wg.Add(len(reqs))
	start := time.Now().Add(time.Millisecond)
	for k, r := range reqs {
		due := start.Add(time.Duration(k) * interval)
		sleepUntil(due)
		if r.billsAck != nil {
			<-r.billsAck
		}
		lags[k] = float64(time.Since(due)) / float64(time.Millisecond)
		outs[r.idx].due = due
		send(rg, r, outs, wg.Done)
	}
	wg.Wait()
	return lags
}

// closedLoop keeps window requests outstanding until reqs are done.
func closedLoop(rg *rig, reqs []*request, outs []outcome, window int) {
	sem := make(chan struct{}, window)
	var wg sync.WaitGroup
	wg.Add(len(reqs))
	for _, r := range reqs {
		sem <- struct{}{}
		if r.billsAck != nil {
			<-r.billsAck
		}
		outs[r.idx].due = time.Now()
		send(rg, r, outs, func() { <-sem; wg.Done() })
	}
	wg.Wait()
}

func send(rg *rig, r *request, outs []outcome, finished func()) {
	rg.submit(r, func(res result) {
		o := &outs[r.idx]
		o.end = time.Now()
		o.res = res
		if r.acked != nil {
			close(r.acked)
		}
		finished()
	})
}

func successes(outs []outcome) int {
	n := 0
	for _, o := range outs {
		if o.res.err == nil {
			n++
		}
	}
	return n
}

// latencies returns each request's latency in ms; a failed or refused
// request counts as beyond any limit.
func latencies(outs []outcome) []float64 {
	lat := make([]float64, len(outs))
	for i, o := range outs {
		if o.res.err != nil {
			lat[i] = math.Inf(1)
			continue
		}
		lat[i] = float64(o.end.Sub(o.due)) / float64(time.Millisecond)
	}
	return lat
}

// percentile is the nearest-rank percentile of xs (0 for no samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// quartiles are the nearest-rank first, second and third quartiles of xs.
func quartiles(xs []float64) []float64 {
	return []float64{percentile(xs, 0.25), percentile(xs, 0.5), percentile(xs, 0.75)}
}

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

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// snapshot is the process and hub counters at a phase boundary.
type snapshot struct {
	cpu        time.Duration
	mallocs    uint64
	totalAlloc uint64
	numGC      uint32
	rt         []metrics.Sample
	shards     map[string]int64 // completed jobs per reported shard, all hubs
	bypassed   int64
	appends    int64
	syncs      int64
	forwarded  int64
}

// runtimeMetricNames are the runtime/metrics the traced run reads.
var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
}

func takeSnapshot(rg *rig, traced bool) snapshot {
	var s snapshot
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.totalAlloc, s.numGC = ms.Mallocs, ms.TotalAlloc, ms.NumGC
	if !traced {
		return s
	}
	s.rt = make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s.rt[i].Name = n
	}
	metrics.Read(s.rt)
	s.shards = map[string]int64{}
	for i, h := range rg.hubs {
		st := h.Status()
		for _, sh := range st.Sched.PerShard {
			s.shards[fmt.Sprintf("%d/%d", i, sh.Shard)] = sh.Completed
			s.bypassed += sh.Bypassed
		}
		if j := h.Journal(); j != nil {
			js := j.Stats()
			s.appends += js.Appends
			s.syncs += js.Syncs
		}
		if st.Cluster != nil {
			s.forwarded += st.Cluster.Forwarded
		}
	}
	return s
}

// totals are a repetition's snapshot deltas over its open-loop phase.
type totals struct {
	numGC     uint32
	gcCPU     float64 // seconds
	busyCPU   float64 // seconds, all classes but idle
	pauses    []uint64
	buckets   []float64
	shards    map[string]int64
	bypassed  int64
	appends   int64
	syncs     int64
	forwarded int64
}

func newTotals() totals { return totals{shards: map[string]int64{}} }

func (t *totals) add(b, a snapshot) {
	t.numGC += a.numGC - b.numGC
	if a.rt == nil {
		return
	}
	f := func(s []metrics.Sample, i int) float64 {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s[i].Value.Float64()
	}
	t.gcCPU += f(a.rt, 0) - f(b.rt, 0)
	t.busyCPU += (f(a.rt, 1) - f(a.rt, 2)) - (f(b.rt, 1) - f(b.rt, 2))
	if a.rt[3].Value.Kind() == metrics.KindFloat64Histogram && b.rt[3].Value.Kind() == metrics.KindFloat64Histogram {
		ha, hb := a.rt[3].Value.Float64Histogram(), b.rt[3].Value.Float64Histogram()
		if t.pauses == nil {
			t.pauses = make([]uint64, len(ha.Counts))
			t.buckets = ha.Buckets
		}
		for i := range ha.Counts {
			t.pauses[i] += ha.Counts[i] - hb.Counts[i]
		}
	}
	for k, v := range a.shards {
		t.shards[k] += v - b.shards[k]
	}
	t.bypassed += a.bypassed - b.bypassed
	t.appends += a.appends - b.appends
	t.syncs += a.syncs - b.syncs
	t.forwarded += a.forwarded - b.forwarded
}

// pauseP99 is the p99 GC pause in seconds: the upper edge of the bucket
// holding it, or its lower edge when that bucket is unbounded.
func (t *totals) pauseP99() float64 {
	var total uint64
	for _, c := range t.pauses {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range t.pauses {
		if seen += c; seen >= want {
			if math.IsInf(t.buckets[i+1], 1) {
				return t.buckets[i]
			}
			return t.buckets[i+1]
		}
	}
	return 0
}

// startProfile starts a CPU profile written to name.
func startProfile(name string) (*os.File, error) {
	f, err := os.Create(name)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// writeAllocProfile writes a traced repetition's allocation profile next
// to its CPU profile.
func writeAllocProfile(cfg config) error {
	f, err := os.Create(filepath.Join(resultDir(cfg), fmt.Sprintf("allocs-rep%d.pprof", cfg.Rep)))
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuProfile is where repetition rep of a traced run keeps its open loop's
// CPU profile.
func cpuProfile(cfg config, rep int) string {
	return filepath.Join(resultDir(cfg), fmt.Sprintf("cpu-rep%d.pprof", rep))
}

// resultDir is where a traced run keeps its profiles, spans and results.
func resultDir(cfg config) string {
	return filepath.Join(cfg.OutDir, fmt.Sprintf("%s-seed%d", cfg.Workload, cfg.Seed))
}
