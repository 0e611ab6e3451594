package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"sort"
	"syscall"
	"time"

	b2b "b2b"
)

// slices is how many pieces a measured window is cut into. Throughput, CPU
// cost and median latency are medians over the pieces, so a stall of a few
// seconds (a GC cycle, a noisy neighbour) moves some pieces, not the result.
const slices = 10

// slice is one piece of the window, bounded by run completions so its run
// count and its duration are both exact. Its runs are the next `runs`
// entries of window.latencies.
type slice struct {
	runs int
	dur  time.Duration
	cpu  time.Duration
}

// window is what one measured window produced.
type window struct {
	attempted int // runs concluded by the driver, warm-up and drain included
	failed    int // ... whose outcome differed from the generator's expectation
	valid     int // measured runs that committed
	vetoed    int // measured runs that were vetoed as expected
	latencies []time.Duration
	slices    []slice
	start     time.Duration // measured interval, on the tracer's clock
	end       time.Duration
}

func (w *window) measuredRuns() int { return w.valid + w.vetoed }

// inflight is a run whose Leave returned and whose outcome is not collected.
type inflight struct {
	op    op
	start time.Time
	root  int // tracer root index
}

// driver is the one load generator: a closed loop at org00 keeping at most
// W runs in flight through the public Controller API.
type driver struct {
	fx    *fixture
	gen   *generator
	tr    *tracer
	model []byte // the state the generator expects every party to agree on
	pend  []inflight
	seq0  uint64 // AgreedSeq after Bootstrap

	proposed  int // every run ever issued
	committed int // every run that committed
	win       *window
	measuring bool
	sliceFrom time.Time
	sliceCPU  time.Duration
	sliceRuns int
	sliceLen  time.Duration
}

func newDriver(fx *fixture, gen *generator, initial []byte, tr *tracer) *driver {
	return &driver{
		fx:    fx,
		gen:   gen,
		tr:    tr,
		model: append([]byte(nil), initial...),
		seq0:  fx.parties[0].ctrl.AgreedSeq(),
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// propose opens a scope, applies the next generated change to the local
// object and leaves the scope, which starts the coordination run. In
// Synchronous mode Leave's return is the outcome.
func (d *driver) propose() (inflight, error) {
	org := d.fx.parties[0]
	o := d.gen.next()
	org.ctrl.Enter()
	if d.fx.w.update {
		org.ctrl.Update()
	} else {
		org.ctrl.Overwrite()
	}
	org.obj.patch(o)
	d.proposed++
	run := inflight{op: o, start: time.Now(), root: d.tr.begin()}
	return run, org.ctrl.Leave()
}

// step issues runs until W are in flight, then collects the oldest outcome.
func (d *driver) step(ctx context.Context) {
	defer time.Sleep(d.fx.w.think)
	if d.fx.w.mode == b2b.Synchronous {
		run, err := d.propose()
		d.conclude(run, err)
		return
	}
	for len(d.pend) < d.fx.w.window {
		run, err := d.propose()
		if err != nil {
			d.conclude(run, err)
			return
		}
		d.pend = append(d.pend, run)
	}
	d.collect(ctx)
}

func (d *driver) collect(ctx context.Context) {
	err := d.fx.parties[0].ctrl.CoordCommit(ctx)
	run := d.pend[0]
	d.pend = d.pend[1:]
	d.conclude(run, err)
}

// conclude compares a run's outcome with what the generator expects (an
// expected veto is a success) and books it.
func (d *driver) conclude(run inflight, err error) {
	now := time.Now()
	d.tr.end(run.root)
	ok := err == nil
	if run.op.veto {
		ok = errors.Is(err, b2b.ErrVetoed)
	}
	d.win.attempted++
	if !ok {
		d.win.failed++
		if d.win.failed <= 5 {
			fmt.Fprintf(os.Stderr, "%s: run %d (veto expected: %v): %v\n", d.fx.w.name, d.proposed, run.op.veto, err)
		}
	}
	if err == nil {
		run.op.applyTo(d.model)
		d.committed++
	}
	if !d.measuring || !ok {
		return
	}
	if run.op.veto {
		d.win.vetoed++
	} else {
		d.win.valid++
	}
	d.win.latencies = append(d.win.latencies, now.Sub(run.start))
	d.sliceRuns++
	if now.Sub(d.sliceFrom) >= d.sliceLen {
		cpu := cpuTime()
		d.win.slices = append(d.win.slices, slice{runs: d.sliceRuns, dur: now.Sub(d.sliceFrom), cpu: cpu - d.sliceCPU})
		d.sliceFrom, d.sliceCPU, d.sliceRuns = now, cpu, 0
	}
}

// run warms the fixture up, measures one window and drains what is still in
// flight. A run is measured when its outcome arrives inside the window. The
// traced run reads its counters in atStart and atEnd.
func (d *driver) run(warmup, length time.Duration, atStart, atEnd func()) *window {
	ctx, cancel := context.WithTimeout(context.Background(), warmup+length+60*time.Second)
	defer cancel()
	d.win = &window{}

	for end := time.Now().Add(warmup); time.Now().Before(end); {
		d.step(ctx)
	}
	if atStart != nil {
		atStart()
	}
	d.measuring = true
	d.sliceLen = length / slices
	d.sliceFrom, d.sliceCPU, d.sliceRuns = time.Now(), cpuTime(), 0
	d.win.start = d.tr.now()
	for end := d.sliceFrom.Add(length); time.Now().Before(end); {
		d.step(ctx)
	}
	d.win.end = d.tr.now()
	d.measuring = false
	if atEnd != nil {
		atEnd()
	}
	for len(d.pend) > 0 {
		d.collect(ctx)
	}
	return d.win
}

// check is the output check: every party agrees on the sequence number and
// the state, the state is the one the generator's model predicts (so no
// vetoed state was installed anywhere), every application object holds it,
// and every evidence log verifies.
func (d *driver) check() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	name := d.fx.w.name
	org := d.fx.parties[0]
	wantSeq := org.ctrl.AgreedSeq()
	want := sha256.Sum256(d.model)
	for _, p := range d.fx.parties {
		if err := p.ctrl.Settle(ctx); err != nil {
			return fmt.Errorf("%s: %s: settle: %w", name, p.id, err)
		}
		// A party adopts the agreed tuple first and installs the state into
		// the application object after its durability barrier, and the last
		// commit may still be on its way: wait for both before judging.
		installed := func() bool {
			state, err := p.obj.GetState()
			return err == nil && bytes.Equal(state, d.model)
		}
		for p.ctrl.AgreedSeq() != wantSeq || !installed() {
			if ctx.Err() != nil {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if got := p.ctrl.AgreedSeq(); got != wantSeq {
			return fmt.Errorf("%s: %s: AgreedSeq %d, org00 has %d", name, p.id, got, wantSeq)
		}
		if got := sha256.Sum256(p.ctrl.AgreedState()); got != want {
			return fmt.Errorf("%s: %s: AgreedState %x, generator expects %x", name, p.id, got[:8], want[:8])
		}
		if !installed() {
			return fmt.Errorf("%s: %s: application object differs from the agreed state", name, p.id)
		}
		if err := p.part.Log().Verify(); err != nil {
			return fmt.Errorf("%s: %s: evidence log: %w", name, p.id, err)
		}
	}
	// Every proposal takes a fresh sequence number, vetoed or not, so the
	// agreed one lies between "commits only" and "every proposal".
	if lo, hi := d.seq0+uint64(d.committed), d.seq0+uint64(d.proposed); wantSeq < lo || wantSeq > hi {
		return fmt.Errorf("%s: AgreedSeq %d outside [%d, %d] (bootstrap %d, %d commits, %d proposals)",
			name, wantSeq, lo, hi, d.seq0, d.committed, d.proposed)
	}
	return nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func (w *window) sliceRates() []float64 {
	var xs []float64
	for _, s := range w.slices {
		xs = append(xs, float64(s.runs)/s.dur.Seconds())
	}
	return xs
}

// runsPerSecond and cpuMsPerRun are medians over the window's slices.
func (w *window) runsPerSecond() float64 { return median(w.sliceRates()) }

func (w *window) cpuMsPerRun() float64 {
	var xs []float64
	for _, s := range w.slices {
		xs = append(xs, ms(s.cpu)/float64(s.runs))
	}
	return median(xs)
}

// latencyP50 is the median over the slices of each slice's median latency.
func (w *window) latencyP50() time.Duration {
	var xs []float64
	at := 0
	for _, s := range w.slices {
		lat := append([]time.Duration(nil), w.latencies[at:at+s.runs]...)
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		xs = append(xs, float64(lat[len(lat)/2]))
		at += s.runs
	}
	return time.Duration(median(xs))
}

// latencyTail is the highest percentile of the whole window that still has
// ten samples beyond it, capped at p99, and which percentile that is.
func (w *window) latencyTail() (tail time.Duration, pct float64) {
	n := len(w.latencies)
	if n == 0 {
		return 0, 0
	}
	s := append([]time.Duration(nil), w.latencies...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	beyond := 10
	if n/100 > beyond {
		beyond = n / 100
	}
	if beyond >= n {
		beyond = n - 1
	}
	return s[n-1-beyond], 100 * float64(n-beyond) / float64(n)
}
