package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// metricDef names one metric of BENCHMARK.json. The lists below are the
// source of truth; bench_test.go checks that BENCHMARK.json agrees.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	Bound float64
}

// endToEnd lists what a user of each workload sees. Every workload
// reports every one of them; the operation behind p50_ms and capacity_sps
// is a Train+Test job for pipeline, one fold for stream and one request
// for the serve workloads. README.md gives the spreads the bounds were
// chosen from.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "capacity_sps", Unit: "sentences/s", Better: "higher", Bound: 0.25},
	{Name: "f1", Unit: "fraction", Better: "higher", Bound: 0.10},
	{Name: "peak_mem_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer lists the layer metrics of the traced run. Every workload
// reports every one; a layer a workload does not exercise reads 0. Times
// are kept to layers every workload runs, so none reads a constant 0;
// the self times of the workload-specific layers (graph.build.self_s,
// graph.update.self_s, propagate.warm.self_s, serving.queue_wait_us.*,
// ...) are in the result's "layers" object.
var perLayer = []metricDef{
	{Name: "tokenize.us_per_sentence", Unit: "us", Better: "lower"},
	{Name: "crf.compile.us_per_sentence", Unit: "us", Better: "lower"},
	{Name: "crf.posteriors.us_per_sentence", Unit: "us", Better: "lower"},
	{Name: "graphner.combine.us_per_sentence", Unit: "us", Better: "lower"},
	{Name: "crf.decode.us_per_sentence", Unit: "us", Better: "lower"},
	{Name: "crf.train.instances", Unit: "count", Better: "lower"},
	{Name: "crf.train.features", Unit: "count", Better: "lower"},
	{Name: "graph.build.vertices", Unit: "count", Better: "lower"},
	{Name: "graph.build.edges", Unit: "count", Better: "lower"},
	{Name: "propagate.run.sweeps", Unit: "count", Better: "lower"},
	{Name: "graph.update.dirty_rows", Unit: "count", Better: "lower"},
	{Name: "graph.update.repaired_rows", Unit: "count", Better: "higher"},
	{Name: "graph.update.rescanned_rows", Unit: "count", Better: "lower"},
	{Name: "graph.update.new_vertices", Unit: "count", Better: "lower"},
	{Name: "graph.update.repair_ratio", Unit: "ratio", Better: "higher"},
	{Name: "propagate.warm.sweeps", Unit: "count", Better: "lower"},
	{Name: "propagate.warm.row_updates", Unit: "count", Better: "lower"},
	{Name: "graphner.redecode_ratio", Unit: "ratio", Better: "lower"},
	{Name: "graphner.artifact.bytes", Unit: "bytes", Better: "lower"},
	{Name: "serving.batch_size_mean", Unit: "count", Better: "higher"},
	{Name: "serving.overloaded", Unit: "count", Better: "lower"},
	{Name: "serving.shed", Unit: "count", Better: "lower"},
	{Name: "serving.repeat_ratio", Unit: "ratio", Better: "higher"},
	{Name: "gen.achieved_rps", Unit: "1/s", Better: "higher"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_p99_us", Unit: "us", Better: "lower"},
	{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.residual_pct", Unit: "%", Better: "lower"},
}

// value is one measured number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d.Nanoseconds()) / 1e6 }
func micros(d time.Duration) float64  { return float64(d.Nanoseconds()) / 1e3 }

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (its default "exclusive" method).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	switch len(s) {
	case 0:
		return q
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	const n = 4
	ld := len(s)
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q
}

// rank is the index of the nearest-rank p-th percentile of n values.
func rank(n int, p float64) int {
	return max(0, int(math.Ceil(p/100*float64(n)))-1)
}

// percentile returns the nearest-rank p-th percentile of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)]
}

// nearestRank returns the nearest-rank p-th percentile of xs: the
// highest value for a p above 100·(n-1)/n, as with a few batch jobs.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func sortDurations(ds []time.Duration) {
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
}

// memWatch follows the Go runtime from the start of a workload's set-up
// to the end of its measured phase. One goroutine samples, every 10 ms,
// the memory the runtime holds from the operating system (mapped minus
// released) and the heap in use; their peaks are peak_mem_mb and
// runtime.heap_peak_mb. Input preparation before the set-up, such as
// training the model a server will load, is outside the window.
type memWatch struct {
	startGC uint32
	quit    chan struct{}
	done    chan [2]uint64 // peak held bytes, peak heap bytes
	once    sync.Once
	peak    [2]uint64
}

func watchMemory() *memWatch {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w := &memWatch{startGC: ms.NumGC, quit: make(chan struct{}), done: make(chan [2]uint64, 1)}
	go w.sample()
	return w
}

func (w *memWatch) sample() {
	s := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
		{Name: "/memory/classes/heap/objects:bytes"},
	}
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	var peak [2]uint64
	for {
		metrics.Read(s)
		peak[0] = max(peak[0], s[0].Value.Uint64()-s[1].Value.Uint64())
		peak[1] = max(peak[1], s[2].Value.Uint64())
		select {
		case <-w.quit:
			w.done <- peak
			return
		case <-tick.C:
		}
	}
}

// stop ends the sampler and waits for it; later calls return at once.
// Workloads defer it so an error path does not leave the sampler running.
func (w *memWatch) stop() {
	w.once.Do(func() {
		close(w.quit)
		w.peak = <-w.done
	})
}

// finish stops the sampler and records peak_mem_mb and, in a traced run,
// the garbage collector's layer metrics.
func (w *memWatch) finish(r *result) {
	w.stop()
	peak := w.peak
	r.metric("peak_mem_mb", float64(peak[0])/(1<<20), "MB")
	if !r.Trace {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var gs debug.GCStats
	gs.PauseQuantiles = make([]time.Duration, 101)
	debug.ReadGCStats(&gs)
	r.layer("runtime.gc_cycles", float64(ms.NumGC-w.startGC), "count")
	r.layer("runtime.gc_pause_p99_us", micros(gs.PauseQuantiles[99]), "us")
	r.layer("runtime.heap_peak_mb", float64(peak[1])/(1<<20), "MB")
}

// setups times a workload's set-up. The workload sets up minSetups times
// before it measures and once more after each operation, so setup_s, the
// median, samples the whole run rather than its first second. Each set-up
// starts from a collected heap, so it does not pay for the garbage of what
// ran before.
type setups []float64

// minSetups is how many times a workload sets up before it measures.
const minSetups = 5

func (s *setups) time(fn func() error) error {
	runtime.GC()
	start := time.Now()
	if err := fn(); err != nil {
		return err
	}
	*s = append(*s, seconds(time.Since(start)))
	return nil
}

// zeroLayers reports 0 for the catalogued counts and ratios of layers the
// workload does not exercise. Times and percentages are left out, so a
// time a workload forgot to measure fails the completeness check.
func zeroLayers(r *result) {
	for _, d := range perLayer {
		if _, ok := r.Layers[d.Name]; !ok && d.Unit != "us" && d.Unit != "%" {
			r.layer(d.Name, 0, d.Unit)
		}
	}
}
