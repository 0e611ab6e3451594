package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"b2b/internal/pagestate"
)

// metric is one reported number. Names and units are the contract in
// BENCHMARK.json; README.md says what each means.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is one workload's report.
type result struct {
	workload  string
	seed      uint64
	window    time.Duration
	samples   int       // latency samples behind the percentiles
	rates     []float64 // runs/s of each slice of the (traced, when tracing) window
	attempted int
	failed    int
	metrics   []metric
	err       error // output-check violation or harness error
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *result) get(name string) (float64, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m.value, true
		}
	}
	return 0, false
}

// The untraced run builds the fixture at least minSetups times and goes on,
// up to maxSetups, until setupBudget is spent; setup_s is the median. Cheap
// fixtures (a millisecond in memory) need the repeats to give a steady median.
const (
	minSetups   = 5
	maxSetups   = 50
	setupBudget = 500 * time.Millisecond
)

// counters are the cumulative counts read at both edges of a traced window.
type counters struct {
	mallocs, allocBytes uint64 // runtime.MemStats
	hashed, copied      uint64 // pagestate.Stats
	dgrams, wireBytes   uint64 // below the reliable layer
	disk                int64  // StorageUsage over all parties
	snapshot            map[string]int64
}

func readCounters(fx *fixture) counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := counters{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, snapshot: make(map[string]int64)}
	c.hashed, c.copied = pagestate.Stats()
	if fx.below != nil {
		c.dgrams, c.wireBytes = fx.below()
	}
	for _, p := range fx.parties {
		c.disk += p.part.StorageUsage()
		for k, v := range p.part.MetricsSnapshot() {
			c.snapshot[k] += v
		}
	}
	return c
}

// measure runs one fixture through warm-up, a measured window and the output
// check, and closes it. Only the traced run reads the counters.
func measure(fx *fixture, gen *generator, initial []byte, tr *tracer, length time.Duration) (*window, counters, counters, error) {
	d := newDriver(fx, gen, initial, tr)
	var before, after counters
	var atStart, atEnd func()
	if tr != nil {
		atStart = func() { before = readCounters(fx) }
		atEnd = func() { after = readCounters(fx) }
	}
	win := d.run(length/5, length, atStart, atEnd)
	err := d.check()
	if cerr := fx.close(); err == nil && cerr != nil {
		err = fmt.Errorf("%s: closing fixture: %w", fx.w.name, cerr)
	}
	return win, before, after, err
}

// runWorkload is one benchmark run of one workload. Untraced, it reports the
// end-to-end metrics. Traced, it spends half the time on an untraced window
// (the base of trace_overhead_ratio) and half on the traced one, then runs
// the layer probes, and reports the per-layer metrics.
func runWorkload(w *workload, seed uint64, length time.Duration, traced bool, outDir string) *result {
	res := &result{workload: w.name, seed: seed, window: length}
	if traced {
		res.window = length / 2
		res.err = res.runTraced(w, outDir)
	} else {
		res.err = res.runUntraced(w, outDir)
	}
	return res
}

func (res *result) book(win *window) {
	res.attempted += win.attempted
	res.failed += win.failed
	res.samples, res.rates = len(win.latencies), win.sliceRates()
}

func (res *result) runUntraced(w *workload, outDir string) error {
	gen := newGenerator(res.seed, w)
	initial := gen.initialState()
	var fx *fixture
	var times []float64
	for begin := time.Now(); len(times) < minSetups || (len(times) < maxSetups && time.Since(begin) < setupBudget); {
		if fx != nil {
			if err := fx.close(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		var err error
		if fx, err = setup(w, initial, dataDir(outDir, w), nil); err != nil {
			return err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	win, _, _, err := measure(fx, gen, initial, nil, res.window)
	res.book(win)
	res.add("runs_per_s", win.runsPerSecond(), "runs/s")
	res.add("run_latency_p50_ms", ms(win.latencyP50()), "ms")
	res.add("cpu_ms_per_run", win.cpuMsPerRun(), "ms")
	res.add("setup_s", median(times), "s")
	return err
}

func (res *result) runTraced(w *workload, outDir string) error {
	gen := newGenerator(res.seed, w)
	initial := gen.initialState()
	fx, err := setup(w, initial, dataDir(outDir, w), nil)
	if err != nil {
		return err
	}
	base, _, _, err := measure(fx, gen, initial, nil, res.window)
	res.book(base)
	if err != nil {
		return err
	}

	// The traced fixture starts again from the initial state and continues
	// the generator's op sequence.
	tr := newTracer(w.members())
	if fx, err = setup(w, initial, dataDir(outDir, w), tr); err != nil {
		return err
	}
	win, before, after, err := measure(fx, gen, initial, tr, res.window)
	res.book(win)
	if err != nil {
		return err
	}
	proposer := fx.parties[0].id
	an := tr.analyse(proposer, win.start, win.end)
	if err := checkMessages(w, an); err != nil {
		return err
	}
	if err := an.writeSpans(filepath.Join(outDir, "trace-"+w.name+".jsonl"), proposer); err != nil {
		return err
	}
	probes, err := runProbes(w, initial, filepath.Join(outDir, "probe-"+w.name))
	if err != nil {
		return err
	}
	layerMetrics(res, base, win, before, after, an, probes)
	return nil
}

// dataDir is where the TCP workload keeps its journals and WALs.
func dataDir(outDir string, w *workload) string { return filepath.Join(outDir, "data-"+w.name) }

// checkMessages is the message-complexity tripwire: a run that committed or
// was vetoed exchanges exactly 3(n-1) distinct coordination messages.
func checkMessages(w *workload, an *analysis) error {
	want := 3 * (w.parties - 1)
	for _, rt := range an.runs {
		if got := rt.edges(); got != want {
			return fmt.Errorf("%s: org00: run %s exchanged %d distinct coordination messages, want 3(n-1) = %d", w.name, rt.id, got, want)
		}
	}
	if an.incomplete > 0 {
		return fmt.Errorf("%s: %d of %d traced runs lack a complete blocking path", w.name, an.incomplete, len(an.runs))
	}
	return nil
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// layerMetrics books every per-layer metric, in the order of BENCHMARK.json.
func layerMetrics(res *result, base, win *window, before, after counters, an *analysis, probes map[string]float64) {
	runs := float64(win.measuredRuns())
	perRun := func(delta float64) float64 { return delta / runs }
	snap := func(name string) float64 { return float64(after.snapshot[name] - before.snapshot[name]) }
	stage := func(name string) float64 { return median(an.stageUs[name]) }
	probeUs := func(name string) { res.add(name, probes[name], "us") }

	probeUs("crypto.sign_us")
	probeUs("crypto.verify_us")
	verifies, hits := snap("coord.sig_verifies"), snap("coord.sig_memo_hits")
	res.add("crypto.verifies_per_run", perRun(verifies), "count")
	res.add("crypto.sig_memo_hit_ratio", ratio(hits, hits+verifies), "ratio")

	probeUs("wire.codec_us")
	probeUs("canon.marshal_us")
	res.add("wire.bytes_per_run", perRun(float64(an.bytes)), "B")

	probeUs("pagestate.apply_us")
	probeUs("pagestate.build_us")
	res.add("pagestate.hashed_bytes_per_run", perRun(float64(after.hashed-before.hashed)), "B")
	res.add("pagestate.copied_bytes_per_run", perRun(float64(after.copied-before.copied)), "B")

	probeUs("store.append_sync_us")
	res.add("store.disk_bytes_per_run", perRun(float64(after.disk-before.disk)), "B")
	probeUs("nrlog.append_us")

	res.add("transport.hop_us", median(an.hopUs), "us")
	res.add("transport.net_propose_us", stage("net.propose"), "us")
	res.add("transport.net_respond_us", stage("net.respond"), "us")
	res.add("transport.net_commit_us", stage("net.commit"), "us")
	res.add("transport.dgrams_per_run", perRun(float64(after.dgrams-before.dgrams)), "count")
	wireBytes := float64(after.wireBytes - before.wireBytes)
	res.add("transport.wire_bytes_per_run", perRun(wireBytes), "B")
	res.add("transport.amplification", ratio(wireBytes, float64(an.bytes)), "ratio")

	res.add("coord.msgs_per_run", perRun(float64(an.msgs)), "count")
	res.add("coord.propose_build_us", stage("propose.build"), "us")
	res.add("coord.respond_build_us", stage("respond.build"), "us")
	res.add("coord.commit_build_us", stage("commit.build"), "us")
	res.add("coord.finalize_us", stage("run.finalize"), "us")
	res.add("coord.commit_install_us", stage("commit.install"), "us")

	res.add("core.admit_us", stage("recv.admit"), "us")
	res.add("core.handled_per_run", perRun(snap("runtime.handled")), "count")
	res.add("core.shed", snap("runtime.shed"), "count")

	res.add("app.validate_us", stage("app.validate"), "us")
	copies := an.upcallTime["GetState"] + an.upcallTime["GetUpdate"] + an.upcallTime["ApplyState"] + an.upcallTime["ApplyUpdate"]
	res.add("app.state_copy_us", perRun(us(copies)), "us")

	res.add("proc.allocs_per_run", perRun(float64(after.mallocs-before.mallocs)), "count")
	res.add("proc.alloc_bytes_per_run", perRun(float64(after.allocBytes-before.allocBytes)), "B")
	res.add("proc.peak_rss_mib", peakRSSMiB(), "MiB")
	probeUs("proc.timer_late_us")

	tail, pct := base.latencyTail()
	res.add("run_latency_p99_ms", ms(tail), "ms")
	res.add("run_latency_tail_pct", pct, "%")
	p50 := win.latencyP50()
	res.add("trace.run_latency_p50_ms", ms(p50), "ms")
	res.add("trace.runs_per_s", win.runsPerSecond(), "runs/s")
	res.add("trace_overhead_ratio", ratio(base.runsPerSecond(), win.runsPerSecond()), "ratio")
	var sum float64
	for _, name := range stages[:blockingStages] {
		sum += stage(name)
	}
	res.add("trace.stage_sum_ratio", ratio(sum, us(p50)), "ratio")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
