// Command perfbench is the repository's end-to-end benchmark. It starts
// two GekkoFS daemons in this process, each behind a loopback TCP
// listener with node-local storage on vfs.Mem (SyncWAL on, 512 KiB
// chunks), mounts one client over them with one connection per daemon,
// and drives it from two closed-loop workers through one workload:
// mdtest, ior-seq or ckpt-r2. See README.md for what each measures.
//
//	go run . --workload mdtest --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 it runs the workload untraced and then traced, and
// reports the per-layer metrics. Either way it checks every result and
// prints, as its last line, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. A wrong byte, size or
// listing ends the run with exit status 1 and no result line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"time"
)

const (
	nWorkers = 2
	// setupRounds is how many times a run sets up (daemons, mount,
	// pre-population); setup_s is their median.
	setupRounds = 5
	// minLaps is the fewest laps a run times.
	minLaps = 3
	// spanDir, relative to the working directory, receives a traced
	// run's spans.
	spanDir = ".bench_build/spans"
)

type options struct {
	seed    uint64
	seconds float64
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: mdtest, ior-seq or ckpt-r2")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 10, "how long the timed part runs")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", workloadOrder)
		return 2
	}
	opts := options{seed: uint64(*seed), seconds: *seconds}
	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(wl, opts, stdout)
	} else {
		res, err = runEndToEnd(wl, opts, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s is %v\n", wl.name, name, m.Value)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// endToEndMetrics lists every end-to-end metric in report order.
func endToEndMetrics() []metricDef {
	ms := []metricDef{{"setup_s", "s"}}
	for _, r := range roleNames {
		ms = append(ms, metricDef{r + "_ops_s", "1/s"}, metricDef{r + "_p50_us", "us"})
		if r == "read" {
			ms = append(ms, metricDef{r + "_p90_us", "us"})
		}
	}
	return append(ms, metricDef{"peak_heap_mib", "MiB"})
}

// setUp starts a cluster for wl and pre-populates it.
func setUp(wl *workload, opts options, workers int, sz sizes, tr *tracer) (*bench, error) {
	cl, err := startCluster(wl.mount(sz), tr)
	if err != nil {
		return nil, err
	}
	b := newBench(cl, opts.seed, workers, sz, tr)
	if err := wl.prepare(b); err != nil {
		cl.close()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	return b, nil
}

// quiesce collects garbage from earlier set-ups so that each timed
// stretch starts from the same heap. The memory stays mapped: returning
// it to the OS would make the timed part pay page faults whose cost
// varies with the host's memory pressure.
func quiesce() {
	runtime.GC()
}

// runLaps runs the timed laps. Their number follows from seconds alone,
// never from how fast laps go: every run of a workload does the same
// work, so state that grows with the work done (such as ior-seq's
// size-update merge chains) is the same at the same lap of every run.
func runLaps(b *bench, wl *workload, seconds float64) error {
	laps := max(minLaps, int(math.Round(seconds*wl.lapsPerSecond)))
	for lap := 0; lap < laps; lap++ {
		if err := wl.lap(b, lap); err != nil {
			return err
		}
	}
	return nil
}

func runEndToEnd(wl *workload, opts options, out io.Writer) (*result, error) {
	var setups []float64
	var b *bench
	for i := 0; i < setupRounds; i++ {
		quiesce()
		t0 := time.Now()
		bb, err := setUp(wl, opts, nWorkers, fullSizes, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRounds-1 {
			if err := bb.cl.close(); err != nil {
				return nil, err
			}
			continue
		}
		b = bb
	}
	defer b.cl.close()
	quiesce()
	hs := startHeapSampler()
	err := runLaps(b, wl, opts.seconds)
	peak := hs.finish()
	if err != nil {
		return nil, err
	}

	v := map[string]float64{}
	v["setup_s"] = median(setups)
	fmt.Fprintf(out, "# perfbench %s seed=%d workers=%d daemons=%d transport=tcp chunk=%dKiB syncwal=on R=%d\n",
		wl.name, opts.seed, nWorkers, nDaemons, chunkSize>>10, wl.replicas)
	fmt.Fprintf(out, "# setup_s samples: %.4f\n", setups)
	for r, role := range roleNames {
		var rates []float64
		for _, p := range b.phases[r] {
			rates = append(rates, p.rate())
		}
		lat := slices.Clone(b.allLat[r])
		sort.Float64s(lat)
		v[role+"_ops_s"] = median(rates)
		v[role+"_p50_us"] = quantile(lat, 0.50)
		v[role+"_p90_us"] = quantile(lat, 0.90)
		fmt.Fprintf(out, "# %-5s (%s): laps=%d calls=%d ops_s median=%.1f per-lap=%.0f p50=%.1fus p90=%.1fus p99=%.1fus\n",
			role, wl.phaseNames[r], len(rates), len(lat), v[role+"_ops_s"], rates,
			quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99))
	}
	v["peak_heap_mib"] = peak
	att, failed := b.attempted.Load(), b.failed.Load()
	fmt.Fprintf(out, "# fail_ratio=%g (%d of %d calls failed)\n", ratio(float64(failed), float64(att)), failed, att)
	return newResult(endToEndMetrics(), v, att, failed)
}

func runTraced(wl *workload, opts options, out io.Writer) (*result, error) {
	half := opts.seconds / 2

	// Untraced pass: the reference rate and the Go runtime's costs.
	quiesce()
	b, err := setUp(wl, opts, nWorkers, fullSizes, nil)
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	err = runLaps(b, wl, half)
	runtime.ReadMemStats(&ms1)
	if cerr := b.cl.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	plainRate := float64(b.roleOps()) / b.timedSeconds()
	attempted, failed := b.attempted.Load(), b.failed.Load()

	// Traced pass.
	quiesce()
	tr := newTracer()
	tb, err := setUp(wl, opts, nWorkers, fullSizes, tr)
	if err != nil {
		return nil, err
	}
	defer tb.cl.close()
	before, hedged0 := daemonHists(tb.cl), tb.c.Stats().HedgedReads
	tr.on.Store(true)
	if err := runLaps(tb, wl, half); err != nil {
		return nil, err
	}
	spans, err := tr.collect()
	if err != nil {
		return nil, err
	}
	stored, err := tb.cl.storedChunkBytes()
	if err != nil {
		return nil, err
	}
	in := layerInput{
		spans:       spans,
		timedNS:     tb.timedSeconds() * 1e9,
		replicas:    wl.replicas,
		userWritten: tb.userWritten.Load(),
		userRead:    tb.userRead.Load(),
		liveBytes:   int64(nWorkers * wl.fileBytes(fullSizes)),
		storedBytes: stored,
		hedged:      tb.c.Stats().HedgedReads - hedged0,
		daemon:      histWindow{before: before, after: daemonHists(tb.cl)},
	}
	res, err := analyze(in)
	if err != nil {
		return nil, err
	}
	tracedRate := float64(tb.roleOps()) / tb.timedSeconds()
	ops := float64(b.roleOps())
	res.values["runtime.alloc_bytes_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / ops
	res.values["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	res.values["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	res.values["trace.overhead_frac"] = plainRate/tracedRate - 1

	spanFile := fmt.Sprintf("%s-seed%d.tsv", wl.name, opts.seed)
	if err := writeSpans(spanDir, spanFile, spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	if err := checkTransparency(wl, opts.seed); err != nil {
		return nil, err
	}

	fmt.Fprintf(out, "# perfbench %s seed=%d traced: untraced %.1f ops/s, traced %.1f ops/s; spans in %s/%s\n",
		wl.name, opts.seed, plainRate, tracedRate, spanDir, spanFile)
	printAttribution(out, res)
	for _, d := range perLayerMetrics() {
		fmt.Fprintf(out, "# %-40s %14.4f %s\n", d.name, res.values[d.name], d.unit)
	}
	return newResult(perLayerMetrics(), res.values, attempted+tb.attempted.Load(), failed+tb.failed.Load())
}

// newResult reports exactly the metrics defs lists, taking their values
// from v.
func newResult(defs []metricDef, v map[string]float64, attempted, failed int64) (*result, error) {
	m := map[string]metricValue{}
	for _, d := range defs {
		x, ok := v[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not computed", d.name)
		}
		m[d.name] = metricValue{x, d.unit}
	}
	return &result{Correct: true, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// heapSampler tracks the peak Go heap in use while it runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}
