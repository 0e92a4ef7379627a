// Command madbench is the repository's benchmark. It runs one named workload
// of the malvertising study — batch-study, stream-durable or serve-paced —
// for a fixed time, checks the outputs, and prints every end-to-end metric by
// name and unit; with -trace 1 it runs the workload traced and prints every
// per-layer metric instead. The last line of its output is one JSON object.
//
// From the repository root:
//
//	bash madbench/run.sh --workload batch-study --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"madave/internal/core"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "batch-study, stream-durable or serve-paced")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "how long to measure, in seconds")
	trace := flag.Int("trace", 0, "1: run traced and print the per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "madbench"), "directory for journals and span files")
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	e := &env{seed: studySeed(*seed), workers: runtime.NumCPU(), out: *out}
	budget := time.Duration(*seconds) * time.Second
	var samples []sample
	var l layers
	var err error
	var cfg core.Config
	switch *workload {
	case "batch-study":
		cfg = studyConfig(e.seed, e.workers, false, false)
		samples, l, err = e.runBatch(budget, *trace == 1)
	case "stream-durable", "serve-paced":
		serve := *workload == "serve-paced"
		cfg = studyConfig(e.seed, e.workers, true, !serve)
		samples, l, err = e.runStream(serve, budget, *trace == 1)
	default:
		err = fmt.Errorf("unknown workload %q (want batch-study, stream-durable or serve-paced)", *workload)
	}
	if err != nil {
		fatal(err)
	}
	var setups []time.Duration
	if *trace == 0 {
		if setups, err = timeSetups(cfg, extraSetups); err != nil {
			fatal(err)
		}
	}

	res := result{Correct: len(e.failed) == 0, Metrics: map[string]metric{}}
	var shed int64
	for _, s := range samples {
		res.Attempted += s.offered
		res.Failed += s.failed
		shed += s.shed
	}
	// Both ratios are 0 when all is well, so they are reported here and in
	// the traced run, and gated through ok_ratio.
	failedRatio := ratio(float64(res.Failed-shed), float64(res.Attempted))
	shedRatio := ratio(float64(shed), float64(res.Attempted))
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "madbench %s seed %d (study seed %d): %d runs, %d visits offered, %d workers\n",
		*workload, *seed, e.seed, len(samples), res.Attempted, e.workers)
	fmt.Fprintf(w, "  %-30s %14.6g %s\n", "failed_ratio", failedRatio, "ratio")
	fmt.Fprintf(w, "  %-30s %14.6g %s\n", "shed_ratio", shedRatio, "ratio")
	if *trace == 1 {
		l["failed_ratio"], l["shed_ratio"] = failedRatio, shedRatio
		for _, lu := range layerUnits {
			res.Metrics[lu.name] = metric{l[lu.name], lu.unit}
		}
	} else {
		res.Metrics = endToEnd(samples, setups)
	}
	for _, name := range metricOrder(res.Metrics) {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, f := range e.failed {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "%s\n", line)
	if err := w.Flush(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "madbench:", err)
	os.Exit(1)
}

// endUnits lists every end-to-end metric with its unit, in report order.
var endUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"ads_per_s", "1/s"},
	{"visits_per_s", "1/s"},
	{"commit_p50_ms", "ms"},
	{"commit_p99_ms", "ms"},
	{"gen_lag_s", "s"},
	{"ok_ratio", "ratio"},
	{"peak_rss_mb", "MB"},
}

// metricOrder returns the names of m in report order.
func metricOrder(m map[string]metric) []string {
	var names []string
	for _, list := range [][]struct{ name, unit string }{endUnits, layerUnits} {
		for _, lu := range list {
			if _, ok := m[lu.name]; ok {
				names = append(names, lu.name)
			}
		}
	}
	return names
}

// endToEnd reduces a run's samples to the end-to-end metrics: the median
// over samples of each sample's value (set-up also over the extra builds).
// A sample's commit latencies give its own p50 and p99, so one sample hit by
// a burst of outside load moves neither.
func endToEnd(samples []sample, setups []time.Duration) map[string]metric {
	setup := secs(setups)
	var run, adsPS, visitsPS, lag, p50, p99 []float64
	var offered, failed int64
	for _, s := range samples {
		setup = append(setup, s.setup.Seconds())
		run = append(run, s.run.Seconds())
		adsPS = append(adsPS, ratio(float64(s.ads), s.run.Seconds()))
		visitsPS = append(visitsPS, ratio(float64(s.visits), s.run.Seconds()))
		lag = append(lag, s.lag.Seconds())
		lat := secs(s.latency)
		p50 = append(p50, 1000*percentile(lat, 0.5))
		p99 = append(p99, 1000*percentile(lat, 0.99))
		offered += s.offered
		failed += s.failed
	}
	v := map[string]float64{
		"setup_s":       median(setup),
		"run_s":         median(run),
		"ads_per_s":     median(adsPS),
		"visits_per_s":  median(visitsPS),
		"commit_p50_ms": median(p50),
		"commit_p99_ms": median(p99),
		"gen_lag_s":     median(lag),
		"ok_ratio":      1 - ratio(float64(failed), float64(offered)),
		"peak_rss_mb":   peakRSSMB(),
	}
	m := make(map[string]metric, len(endUnits))
	for _, eu := range endUnits {
		m[eu.name] = metric{v[eu.name], eu.unit}
	}
	return m
}

// peakRSSMB returns the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// repeat calls fn at least once, and again while the budget lasts. Garbage
// from the previous iteration is collected before each one, outside the
// timed work.
func repeat(budget time.Duration, fn func() error) error {
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < budget; i++ {
		runtime.GC()
		if err := fn(); err != nil {
			return err
		}
	}
	return nil
}

// runBatch measures batch-study. Untraced, it repeats the study; traced, it
// alternates untraced and traced studies, checks they agree byte for byte,
// and replays the last traced study's inputs through the layers.
func (e *env) runBatch(budget time.Duration, trace bool) ([]sample, layers, error) {
	var samples, traced []sample
	var witness string
	var last *batchRun
	err := repeat(budget, func() error {
		b, err := e.batch(false)
		if err != nil {
			return err
		}
		if witness == "" {
			e.checkBatch(b)
			witness = b.witness
		}
		e.expect(b.witness == witness, "batch-study: a repeated study gave other outputs")
		samples = append(samples, b.sample)
		if !trace {
			return nil
		}
		last = nil // let the previous traced run's spans be collected
		runtime.GC()
		t, err := e.batch(true)
		if err != nil {
			return err
		}
		e.expect(t.witness == witness, "batch-study: the traced run's outputs differ from the untraced run's")
		traced = append(traced, t.sample)
		last = t
		return nil
	})
	if err != nil || !trace {
		return samples, nil, err
	}
	l := layers{}
	if err := setupLayers(l, last.study); err != nil {
		return nil, nil, err
	}
	e.batchLayers(l, last)
	e.traceLayers(l, "batch-study", last.tr, samples, traced)
	return append(samples, traced...), l, nil
}

// runStream measures stream-durable (serve false) or serve-paced (serve
// true), traced or not, like runBatch.
func (e *env) runStream(serve bool, budget time.Duration, trace bool) ([]sample, layers, error) {
	var samples, traced []sample
	var witness string
	var first, last *streamRun
	err := repeat(budget, func() error {
		s, err := e.stream(serve, false)
		if err != nil {
			return err
		}
		// Serve mode commits what it did not shed, so two runs' summaries
		// compare only when neither shed anything.
		sameInputs := func(s *streamRun) bool { return !serve || s.shed == 0 && first.shed == 0 }
		if first == nil {
			first = s
			witness = s.witness
			if serve {
				e.checkServe(s)
			}
		} else if sameInputs(s) {
			e.expect(s.witness == witness, "%s: a repeated run gave another summary", s.name())
		}
		samples = append(samples, s.sample)
		if !trace {
			return nil
		}
		last = nil // let the previous traced run's spans be collected
		runtime.GC()
		t, err := e.stream(serve, true)
		if err != nil {
			return err
		}
		if sameInputs(t) {
			e.expect(t.witness == witness, "%s: the traced run's summary differs from the untraced run's", t.name())
		}
		traced = append(traced, t.sample)
		last = t
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if !serve {
		// Equivalence with the batch path: same seed, same visits, same
		// verdicts. Not timed.
		runtime.GC()
		ref, err := e.batch(false)
		if err != nil {
			return nil, nil, err
		}
		e.checkStreamDurable(first, ref.res)
	}
	if !trace {
		return samples, nil, nil
	}
	l := layers{}
	if err := setupLayers(l, last.study); err != nil {
		return nil, nil, err
	}
	var replay []float64
	for _, s := range append(samples, traced...) {
		replay = append(replay, float64(s.replay)/float64(time.Millisecond))
	}
	l["journal.replay_ms"] = median(replay)
	if err := e.streamLayers(l, last); err != nil {
		return nil, nil, err
	}
	e.traceLayers(l, last.name(), last.tr, samples, traced)
	return append(samples, traced...), l, nil
}

// traceLayers adds the tracing overhead and writes the traced run's spans.
func (e *env) traceLayers(l layers, name string, tr *tracer, plain, traced []sample) {
	var plainRun, tracedRun []float64
	for _, s := range plain {
		plainRun = append(plainRun, s.run.Seconds())
	}
	for _, s := range traced {
		tracedRun = append(tracedRun, s.run.Seconds())
	}
	l["trace.overhead_ratio"] = ratio(median(tracedRun), median(plainRun))
	path := filepath.Join(e.out, fmt.Sprintf("spans-%s-seed%d.jsonl", name, e.seed))
	if err := tr.writeJSONL(path); err != nil {
		fmt.Fprintln(os.Stderr, "madbench: writing spans:", err)
	}
}
