// Command perfbench is the spinal stack's end-to-end benchmark. It runs one
// named workload through the public packages (spinal/link,
// spinal/transport, spinal/daemon), checks every output against the input
// that produced it, and prints the workload's metrics by name with their
// units; the last line of standard output is one JSON object.
//
//	perfbench --workload mice --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics with tracing and
// profiling off. With --trace 1 it measures the first half of the time
// untraced and the second half with spans around every call the benchmark
// makes into a layer plus a CPU profile, and prints the per-layer metrics.
// DESIGN.md records why each workload and metric was chosen.
package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// setupReps is how many times a run builds its workload: setup_s is the
// median, so one slow construction does not move the figure. Odd, so the
// median is one of the measured values.
const setupReps = 9

// procs pins the Go scheduler to the two busy OS threads every workload
// is sized for, whatever the host's CPU count.
const procs = 2

// A workload is built (constructed, inputs seeded, warmed up) by its
// constructor and then measured one phase at a time.
type workload interface {
	// measure runs operations until b says stop, resolves every operation
	// it started, and reports what it saw. tr is nil when untraced.
	measure(b budget, tr *tracer) (*phase, error)
	close()
}

// workloads maps each name to its constructor, the nominal rate in
// operations per second by which a run is sized (see phaseBudget), and the
// latency quantile reported as op_tail_ms (see tailLatency), from a traced
// run's untraced half. A 30 s run resolves 30000 datagrams, 45 fetches or
// 300 submissions. spinald-b256 reports p90: its p98 and p99 hang on one
// or two bursts per run and spread by half from seed to seed.
var workloads = map[string]struct {
	build func(seed int64) (workload, error)
	rate  float64
	tail  float64
}{
	"mice":         {newMice, miceRate, 0.99},
	"bulk-fetch":   {newBulkFetch, fetchRate, 0.75},
	"spinald-b256": {newSpinald, spinaldRate, 0.90},
}

// budget bounds a phase: no new operation starts after until, nor once
// maxOps have started (0 = no count limit).
type budget struct {
	until  time.Time
	maxOps int
}

func (b budget) allows(started int) bool {
	return (b.maxOps == 0 || started < b.maxOps) && time.Now().Before(b.until)
}

func opsBudget(n int) budget { return budget{until: time.Now().Add(24 * time.Hour), maxOps: n} }

// overrun is how many times its nominal length a phase may run before its
// deadline stops it starting operations.
const overrun = 3

// phaseBudget sizes a phase of length d by operation count: rate × d
// operations, whatever the host's speed. So a seed always runs the same
// operations, and a rare failure of the program (a wrong delivery) shows
// in every run of that seed or in none, never in a run that happened to
// get that far. The deadline of overrun × d only keeps a much slower host
// within the run's time limit.
func phaseBudget(d time.Duration, rate float64) budget {
	return budget{
		until:  time.Now().Add(overrun * d),
		maxOps: max(1, int(math.Round(rate*d.Seconds()))),
	}
}

// phase is one measured stretch of a workload.
type phase struct {
	elapsed   time.Duration
	acct      counts
	bytes     int64 // verified payload bytes
	symbols   int64 // forward plus ack symbols spent, failures included
	latencies []time.Duration
	// layer holds the per-layer metrics the workload measures itself.
	layer map[string]float64
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: mice, bulk-fetch or spinald-b256")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 30, "measured time in seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		flag.Usage()
		return 2
	}
	runtime.GOMAXPROCS(procs)

	res, err := execute(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, wl.build, wl.rate, wl.tail)
	if err != nil && !errors.Is(err, errAccounting) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: output check failed: %v\n", *name, *seed, err)
	}
	res.print(os.Stderr)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// result is the JSON object the last line of output carries.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// order lists the metrics in registry order for the readable summary.
	order []metric
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) set(m metric, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[m.name] = value{v, m.unit}
}

func (r *result) print(w *os.File) {
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
	for _, m := range r.order {
		fmt.Fprintf(w, "  %-28s %14.6g %-8s %s\n", m.name, r.Metrics[m.name].Value, m.unit, m.moves)
	}
}

// execute builds the workload setupReps times, measures the last build,
// and assembles the result. An accounting break returns the partial result
// with Correct false together with an error wrapping errAccounting.
func execute(name string, seed int64, d time.Duration, traced bool, build func(int64) (workload, error), rate, tail float64) (*result, error) {
	var w workload
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w.close()
			// A discarded build's garbage must not count in peak_rss_MB.
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if w, err = build(seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()

	res := &result{Correct: true, Metrics: map[string]value{}}
	if !traced {
		res.order = endToEnd
		ph, err := measurePhase(w, d, rate, nil)
		if ph != nil {
			endToEndMetrics(res, ph, percentile(setups, 0.5), tail)
		}
		return res, markIncorrect(res, err)
	}

	res.order = perLayer
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain, err := measurePhase(w, d/2, rate, nil)
	if err != nil {
		return res, markIncorrect(res, err)
	}
	runtime.ReadMemStats(&m1)

	tr := newTracer()
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	traced1, err := measurePhase(w, d/2, rate, tr)
	shares, perr := prof.stop()
	if err != nil {
		return res, markIncorrect(res, err)
	}
	if perr != nil {
		return nil, perr
	}
	if err := tr.write(filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.tsv", name, seed))); err != nil {
		return nil, err
	}
	perLayerMetrics(res, plain, traced1, tr, shares, &m0, &m1, tail)
	return res, nil
}

// measurePhase measures one phase of length d and says on standard error
// when its deadline, not its operation count, ended it.
func measurePhase(w workload, d time.Duration, rate float64, tr *tracer) (*phase, error) {
	b := phaseBudget(d, rate)
	ph, err := w.measure(b, tr)
	if ph != nil && ph.acct.attempted < b.maxOps {
		fmt.Fprintf(os.Stderr, "perfbench: phase stopped at its deadline after %d of %d operations\n", ph.acct.attempted, b.maxOps)
	}
	return ph, err
}

// markIncorrect turns an accounting break into Correct false; other
// errors pass through unchanged.
func markIncorrect(res *result, err error) error {
	if errors.Is(err, errAccounting) {
		res.Correct = false
	}
	return err
}

func endToEndMetrics(res *result, ph *phase, setup, tail float64) {
	res.Attempted = ph.acct.attempted
	res.Failed = ph.acct.failed
	secs := ph.elapsed.Seconds()
	res.set(mPayloadBps, float64(ph.bytes)/secs)
	res.set(mOpIQM, ms(interquartileMean(ph.latencies)))
	res.set(mBitsPerSymbol, float64(ph.bytes*8)/float64(ph.symbols))
	res.set(mDeliveredFrac, float64(ph.acct.delivered)/float64(ph.acct.attempted))
	res.set(mSetup, setup)
	res.set(mPeakRSS, peakRSSMB())
	fmt.Fprintf(os.Stderr, "latency samples %d, p50 %.3f ms, tail p%g %.3f ms, measured %.3fs\n",
		len(ph.latencies), ms(percentile(ph.latencies, 0.50)), 100*tail, ms(tailLatency(ph.latencies, tail)), secs)
}

func perLayerMetrics(res *result, plain, traced *phase, tr *tracer, shares map[string]float64, m0, m1 *runtime.MemStats, tail float64) {
	res.Attempted = plain.acct.attempted + traced.acct.attempted
	res.Failed = plain.acct.failed + traced.acct.failed
	for _, m := range perLayer {
		res.set(m, traced.layer[m.name]) // a layer the workload does not cross reports 0
	}
	if sends := tr.durations("link.Session.Send"); len(sends) > 0 {
		res.set(mLinkSend, us(percentile(sends, 0.50)))
	}
	if steps := tr.durations("link.Session.Step"); len(steps) > 0 {
		res.set(mLinkStep, ms(percentile(steps, 0.50)))
		res.set(mLinkStepP99, ms(percentile(steps, 0.99)))
	}
	res.set(mCRCFalseAccepts, float64(plain.acct.wrong+traced.acct.wrong))
	res.set(mOpTail, ms(tailLatency(plain.latencies, tail)))
	// Allocation and GC figures come from the untraced half, so the
	// tracer's own allocations do not count.
	ops := float64(plain.acct.attempted)
	res.set(mAllocBytes, float64(m1.TotalAlloc-m0.TotalAlloc)/ops)
	res.set(mAllocObjects, float64(m1.Mallocs-m0.Mallocs)/ops)
	res.set(mGCCycles, float64(m1.NumGC-m0.NumGC)/plain.elapsed.Seconds())
	for _, m := range cpuShares {
		res.set(m, shares[m.name])
	}
	plainBps := float64(plain.bytes) / plain.elapsed.Seconds()
	tracedBps := float64(traced.bytes) / traced.elapsed.Seconds()
	res.set(mTraceOverhead, 1-tracedBps/plainBps)
}

// tailLatency is the median, over up to five consecutive equal parts of a
// run's latencies (in resolution order), of each part's q-quantile. Each
// part keeps at least ten samples beyond its quantile. The median over
// parts keeps one stall of the host from setting the run's tail.
func tailLatency(lat []time.Duration, q float64) time.Duration {
	parts := min(5, max(1, int(float64(len(lat))*(1-q)/10)))
	tails := make([]time.Duration, parts)
	for i := range tails {
		tails[i] = percentile(lat[i*len(lat)/parts:(i+1)*len(lat)/parts], q)
	}
	return percentile(tails, 0.5)
}

// interquartileMean is the mean of the middle half of lat: the
// operations between the 25th and the 75th percentile. Unlike the median
// it moves smoothly when the share of operations needing one more round
// changes, and unlike the mean no outlier moves it.
func interquartileMean(lat []time.Duration) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	s := slices.Clone(lat)
	slices.Sort(s)
	q := len(s) / 4
	mid := s[q : len(s)-q]
	var sum time.Duration
	for _, x := range mid {
		sum += x
	}
	return sum / time.Duration(len(mid))
}

// percentile is the nearest-rank q-quantile of xs (0 for no samples).
func percentile[T cmp.Ordered](xs []T, q float64) T {
	if len(xs) == 0 {
		var zero T
		return zero
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
func us(d time.Duration) float64 { return d.Seconds() * 1e6 }

// peakRSSMB is the process's peak resident set; each run is one process
// running one workload, so the figure belongs to that workload.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
