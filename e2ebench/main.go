// Command e2ebench is the repository's end-to-end benchmark. It runs one
// workload from seeded inputs, checks every answer, and prints each metric
// by name with its unit and sample count; the last line of standard output
// is the JSON result.
//
//	e2ebench --workload air|air-swap|station --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it runs
// the same operations twice — once plain, once with spans around every
// layer call and the obs registries attached — and reports the per-layer
// metrics, the tracing overhead, and each span's self time; the spans are
// written to <build dir>/trace/. See NOTES.md for the design.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// setupRuns is how many times a run brings the system up: once for the
// instance it measures and setupRuns-1 more times between batches, so the
// samples spread over the whole run. setup_s is their median.
const setupRuns = 7

// bench is one workload. newX builds its inputs from the seed; start
// brings up one instance of the system (traced: with obs registries
// attached); measure runs the fixed operation count against it in
// batches, calling m.between after each batch.
type bench interface {
	start(traced bool) (instance, error)
	measure(inst instance, m *meter) error
}

// instance is one running system; stop releases everything start began
// and waits for its goroutines.
type instance interface{ stop() }

// meter is what a measured pass records into.
type meter struct {
	tr  *tracer // nil in a plain pass
	rep *report
	// sample, when set, times one throwaway start and stop; between calls
	// it setupRuns-1 times, spread evenly over the batches.
	sample func() error
	setupS []float64
}

// between runs after batch b (0-based) of n.
func (m *meter) between(b, n int) error {
	if m.sample == nil {
		return nil
	}
	k := setupRuns - 1
	if (b+1)*k/n > b*k/n {
		return m.sample()
	}
	return nil
}

func main() {
	var (
		name    = flag.String("workload", "", "air, air-swap or station")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Int("seconds", 20, "run length; sets the fixed operation count")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	var b bench
	switch *name {
	case "air":
		b = newAir(*seed, *seconds, false)
	case "air-swap":
		b = newAir(*seed, *seconds, true)
	case "station":
		b = newStation(*seed, *seconds)
	default:
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q (want air, air-swap or station)\n", *name)
		os.Exit(2)
	}
	rep := newReport()
	var err error
	if *trace == 1 {
		err = runTraced(b, *name, *seed, rep)
	} else {
		err = runPlain(b, rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout, *trace == 1)
	if !rep.correct() {
		os.Exit(1)
	}
}

// timedStart brings up an instance from a collected heap and returns it
// with its set-up time in seconds.
func timedStart(b bench, traced bool) (instance, float64, error) {
	runtime.GC()
	start := time.Now()
	inst, err := b.start(traced)
	if err != nil {
		return nil, 0, fmt.Errorf("setup: %w", err)
	}
	return inst, time.Since(start).Seconds(), nil
}

// runPlain measures the end-to-end metrics: one measured pass with the
// set-up samples spread over it, then the live heap.
func runPlain(b bench, rep *report) error {
	inst, s, err := timedStart(b, false)
	if err != nil {
		return err
	}
	defer inst.stop()
	m := &meter{rep: rep, setupS: []float64{s}}
	m.sample = func() error {
		other, s, err := timedStart(b, false)
		if err != nil {
			return err
		}
		other.stop()
		m.setupS = append(m.setupS, s)
		return nil
	}
	if err := b.measure(inst, m); err != nil {
		return err
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.metric("setup_s", "s", quantile(m.setupS, 0.5), len(m.setupS))
	rep.metric("heap_live_mb", "MiB", float64(ms.HeapAlloc)/(1<<20), 1)
	return nil
}

// runTraced measures the per-layer metrics. The plain pass gives the
// untraced throughput and the allocation counts; the traced pass, on a
// fresh instance with obs registries attached, gives spans and counters.
func runTraced(b bench, name string, seed int64, rep *report) error {
	inst, err := b.start(false)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	plain := newReport()
	err = b.measure(inst, &meter{rep: plain})
	inst.stop()
	if err != nil {
		return err
	}
	if inst, err = b.start(true); err != nil {
		return fmt.Errorf("traced setup: %w", err)
	}
	defer inst.stop()
	tr := newTracer()
	traced := newReport()
	if err := b.measure(inst, &meter{tr: tr, rep: traced}); err != nil {
		return err
	}
	rep.merge(plain)
	rep.merge(traced)
	rep.metric("obs.overhead_ratio", "ratio",
		traced.values["lookups_per_s"].value/plain.values["lookups_per_s"].value, 2)
	tr.selfTimes(rep)
	layerMetrics(tr, rep)
	path, err := tr.write(name, seed)
	if err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", tr.count(), path)
	return nil
}

// report collects metrics, each with its unit and sample count, and the
// outcome of every operation: a lookup or a rebuild. An operation fails
// when the program returns an error or a wrong answer; a wrong answer
// also makes the run incorrect.
type report struct {
	order     []string
	values    map[string]entry
	attempted int
	failed    int
	wrong     int
	problems  []string
}

type entry struct {
	value   float64
	unit    string
	samples int
	// layer marks a per-layer metric; the rest are end-to-end.
	layer bool
}

func newReport() *report { return &report{values: map[string]entry{}} }

func (r *report) metric(name, unit string, v float64, n int) {
	if _, ok := r.values[name]; !ok {
		r.order = append(r.order, name)
	}
	r.values[name] = entry{v, unit, n, strings.Contains(name, ".")}
}

// ok records an operation that succeeded with the right answer.
func (r *report) ok() { r.attempted++ }

// fail records a failed operation; wrong marks a wrong answer rather than
// an error. The first few failures are kept for the printed report.
func (r *report) fail(wrong bool, format string, args ...any) {
	r.attempted++
	r.failed++
	if wrong {
		r.wrong++
	}
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) correct() bool { return r.wrong == 0 && r.attempted > 0 }

// merge folds another pass into r: its checks and its metrics, which
// replace any of the same name.
func (r *report) merge(o *report) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.wrong += o.wrong
	r.problems = append(r.problems, o.problems...)
	for _, n := range o.order {
		e := o.values[n]
		r.metric(n, e.unit, e.value, e.samples)
	}
}

// print writes the human table, then the one-line JSON result. A traced
// run's result carries the per-layer metrics, a plain run's the
// end-to-end ones.
func (r *report) print(f *os.File, traced bool) {
	tw := tabwriter.NewWriter(f, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tsamples")
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]metric{}
	for _, n := range r.order {
		e := r.values[n]
		if e.layer != traced {
			continue
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%d\n", n, e.value, e.unit, e.samples)
		out[n] = metric{e.value, e.unit}
	}
	tw.Flush()
	fmt.Fprintf(f, "operations: %d attempted, %d failed, %d wrong answers\n", r.attempted, r.failed, r.wrong)
	for _, p := range r.problems {
		fmt.Fprintln(f, "  failed:", p)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, out})
	fmt.Fprintln(f, string(line))
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// nsHist counts durations at nanosecond resolution up to 65.535 µs; longer
// ones count in the last bucket. It holds millions of analytic-lookup
// timings in constant memory, and its quantiles are exact below the cap.
type nsHist [1 << 16]uint32

func (h *nsHist) add(d time.Duration) {
	h[min(int64(d), int64(len(h)-1))]++
}

// quantile returns the q-quantile in nanoseconds, interpolated like
// quantile.
func (h *nsHist) quantile(q float64) float64 {
	var n uint64
	for _, c := range h {
		n += uint64(c)
	}
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := uint64(math.Floor(pos))
	at := func(rank uint64) float64 {
		var seen uint64
		for v, c := range h {
			seen += uint64(c)
			if seen > rank {
				return float64(v)
			}
		}
		return float64(len(h) - 1)
	}
	a := at(lo)
	b := at(min(lo+1, n-1))
	return a + (b-a)*(pos-float64(lo))
}

// durations converts nanosecond samples to the given unit.
func durations(ns []int64, unit time.Duration) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / float64(unit)
	}
	return out
}
