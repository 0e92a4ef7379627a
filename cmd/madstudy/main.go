// Command madstudy runs the complete malvertising measurement study —
// ecosystem generation, crawl, oracle classification, analysis — and prints
// the reproduced paper results (Table 1, Figures 1-5, cluster shares, the
// sandbox census), optionally followed by the §5 countermeasure
// evaluations.
//
// With -serve or -checkpoint it instead runs the crash-safe streaming
// service: visits flow through supervised stages, every completed visit is
// journaled, SIGINT/SIGTERM drains gracefully, and a killed run resumed from
// the same checkpoint file lands on byte-identical final statistics.
//
// Usage:
//
//	madstudy [-seed N] [-sites N] [-days N] [-refreshes N] [-workers N]
//	         [-chaos RATE] [-cache] [-graph] [-defenses] [-corpus out.jsonl] [-csv dir]
//	         [-serve] [-checkpoint journal.wal] [-drain-timeout 30s]
//	         [-serve-rate N] [-ops-addr ADDR] [-events-out events.jsonl]
//	         [-metrics-out metrics.prom] [-spans-out trace.json]
//	         [-pprof ADDR] [-cpuprofile cpu.pb.gz] [-memprofile heap.pb.gz]
//
// -ops-addr starts the live operations plane (internal/opsd): /metrics,
// /healthz, /readyz, /statusz, /alerts, /events, and /debug/pprof/ on one
// embedded admin server. The ops plane is observe-only: a run with it on is
// byte-identical to one with it off.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"madave"
	"madave/internal/analysis"
	"madave/internal/journal"
	"madave/internal/memnet"
	"madave/internal/opsd"
	"madave/internal/stream"
	"madave/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("madstudy: ")

	var (
		seed      = flag.Uint64("seed", 1, "simulation seed (same seed, same study)")
		sites     = flag.Int("sites", 800, "crawl-set sample size (0 = full paper-style set)")
		days      = flag.Int("days", 1, "crawl days (paper: ~90)")
		refreshes = flag.Int("refreshes", 5, "page refreshes per visit (paper: 5)")
		workers   = flag.Int("workers", 8, "crawl and oracle parallelism")
		defenses  = flag.Bool("defenses", false, "also evaluate the §5 countermeasures")
		figures   = flag.Bool("figures", false, "render Figures 1-5 as ASCII charts")
		project   = flag.Bool("project", false, "project Table 1 to the paper's 673,596-ad corpus")
		validate  = flag.Bool("validate", false, "compare the oracle against simulation ground truth")
		corpusOut = flag.String("corpus", "", "write the ad corpus (JSON lines) to this file")
		csvDir    = flag.String("csv", "", "write figure CSVs into this directory")
		mdOut     = flag.String("md", "", "write the full Markdown report to this file")
		traceOut  = flag.String("trace", "", "capture all crawl HTTP traffic and write it (JSON lines) to this file")
		chaos     = flag.Float64("chaos", 0, "injected network fault rate in [0,1] (0 = off); faults are seeded, so the study stays reproducible")
		interpJS  = flag.Bool("minijs-interp", false, "execute page scripts with the tree-walking interpreter instead of the bytecode VM (slower; identical results)")
		graph     = flag.Bool("graph", false, "enable the flow-graph oracle: structural per-page graphs with a fourth classifier component (additive; base stats stay byte-identical)")

		cache        = flag.Bool("cache", false, "memoize honeyclient reports, blacklist verdicts, and AV scans (results stay byte-identical; repeated artefacts classify once)")
		cacheEntries = flag.Int("cache-entries", 0, "per-cache capacity override (0 = per-cache defaults)")

		serve        = flag.Bool("serve", false, "streaming service mode: Zipf-sampled impressions admitted through the priority shedder (overload sheds low-rank sites, counted, never silent)")
		checkpoint   = flag.String("checkpoint", "", "journal file for crash-safe streaming (implies streaming mode); a killed run resumed from the same file yields byte-identical final statistics")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "on SIGINT/SIGTERM, how long the streaming drain waits for in-flight visits before hard-cancelling")
		impressions  = flag.Int("impressions", 0, "serve mode: impressions to admit before draining (0 = default)")
		serveRate    = flag.Float64("serve-rate", 0, "serve mode: pace the impression source to roughly this many offers per second (0 = unpaced)")

		opsAddr   = flag.String("ops-addr", "", "serve the live operations plane (metrics, health, statusz, alerts, events, pprof) on this address (e.g. 127.0.0.1:9090)")
		eventsOut = flag.String("events-out", "", "also append structured JSONL events to this file as they happen")

		metricsOut = flag.String("metrics-out", "", "write end-of-run metrics to this file (.prom = Prometheus text, else JSON)")
		spansOut   = flag.String("spans-out", "", "record pipeline spans and write them to this file (.jsonl = JSON lines, else Chrome trace_event for chrome://tracing / Perfetto)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write an end-of-run heap profile to this file")
	)
	flag.Parse()

	// A first SIGINT/SIGTERM cancels the run context: streaming mode drains
	// gracefully, batch mode stops scheduling visits but still prints the
	// end-of-run tables over whatever was collected. A second signal kills
	// the process the usual way.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	cfg := madave.DefaultConfig()
	cfg.Seed = *seed
	cfg.CrawlSites = *sites
	cfg.Crawl.Days = *days
	cfg.Crawl.Refreshes = *refreshes
	cfg.Crawl.Parallelism = *workers
	cfg.OracleParallelism = *workers
	cfg.MinijsInterp = *interpJS
	cfg.GraphOracle = *graph
	if *chaos > 0 {
		prof := memnet.UniformProfile(*chaos)
		cfg.Chaos = &prof
	}
	if *cache {
		cfg.Cache = madave.CacheConfig{
			Enabled:            true,
			HoneyclientEntries: *cacheEntries,
			BlacklistEntries:   *cacheEntries,
			AVScanEntries:      *cacheEntries,
		}
	}

	tel := telemetry.New(*seed)
	if *spansOut != "" {
		tel.EnableTracing()
	}
	tel.Events = telemetry.NewEventLog(0)
	if *eventsOut != "" {
		f, err := os.Create(*eventsOut)
		if err != nil {
			log.Fatal(err)
		}
		tel.Events.SetSink(f)
		defer func() {
			tel.Events.Flush() //nolint:errcheck // best-effort final flush
			f.Close()
		}()
	}
	cfg.Telemetry = tel

	var ops *opsd.Server
	if *opsAddr != "" {
		var err error
		ops, err = opsd.Start(opsd.Config{Addr: *opsAddr, Tel: tel})
		if err != nil {
			log.Fatal(err)
		}
		defer ops.Close()
		fmt.Printf("ops plane: serving on http://%s/ (/metrics /healthz /readyz /statusz /alerts /events /debug/pprof/)\n", ops.Addr())
	}

	if *pprofAddr != "" {
		addr, stopPprof, err := telemetry.StartPprof(*pprofAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer stopPprof()
		fmt.Printf("pprof: serving on http://%s/debug/pprof/\n", addr)
	}
	if *cpuProfile != "" || *memProfile != "" {
		finish, err := telemetry.ProfileStudy(*cpuProfile, *memProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := finish(); err != nil {
				log.Print(err)
			}
		}()
	}

	start := time.Now()
	study, err := madave.NewStudy(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ecosystem: %d sites, %d ad networks, %d campaigns (built in %v)\n",
		len(study.Web.Sites), len(study.Eco.Networks), len(study.Eco.Campaigns),
		time.Since(start).Round(time.Millisecond))

	if *serve || *checkpoint != "" {
		if err := runStream(ctx, study, tel, ops, *serve, *checkpoint, *drainTimeout, *impressions, *serveRate); err != nil {
			log.Fatal(err)
		}
		flushTelemetry(study, tel, *metricsOut, *spansOut)
		return
	}

	// A traced run crawls, then classifies, so the whole trace can be saved
	// first; otherwise RunContext classifies each ad as the crawl sees it.
	runStart := time.Now()
	var results *madave.Results
	if *traceOut != "" {
		corp, stats, trace := study.CrawlTraced()
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := trace.Save(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
		sum := trace.Summarize()
		fmt.Printf("traffic trace: %d transactions over %d hosts (%d redirects, %d bytes) -> %s\n",
			sum.Transactions, sum.Hosts, sum.Redirects, sum.BytesTotal, *traceOut)
		for _, hs := range sum.TopHosts(5) {
			fmt.Printf("  busiest: %-40s %6d transactions %10d bytes\n",
				hs.Host, hs.Transactions, hs.Bytes)
		}
		verdicts := study.ClassifyContext(ctx, corp)
		results = &madave.Results{Corpus: corp, CrawlStats: stats, Oracle: verdicts,
			Report: study.Analyze(corp, verdicts, stats)}
	} else {
		results = study.RunContext(ctx)
	}
	elapsed := time.Since(runStart).Round(time.Millisecond)
	corp, stats, verdicts, report := results.Corpus, results.CrawlStats, results.Oracle, results.Report
	if ctx.Err() != nil {
		fmt.Println("interrupted — reporting over the partial crawl")
	}
	fmt.Printf("crawl: %d pages, %d ad frames, %d unique ads\n",
		stats.PagesVisited, stats.AdFrames, corp.Len())
	if *chaos > 0 {
		fmt.Printf("resilience: %d retries, %d attempt timeouts, %d truncations, %d circuit opens (%d requests shed), %d degraded pages\n",
			stats.Retries, stats.Timeouts, stats.Truncations,
			stats.CircuitOpens, stats.CircuitShortCircuits, stats.DegradedPages)
		fmt.Printf("page errors: %d (%d nxdomain, %d timeout, %d http, %d other)\n",
			stats.PageErrors, stats.NXDomainErrors, stats.TimeoutErrors,
			stats.HTTPErrors, stats.OtherErrors)
	}
	fmt.Printf("oracle: %d incidents among %d ads — %.2f%% malicious (crawl + oracle %v)\n",
		verdicts.MaliciousCount(), verdicts.Scanned, 100*verdicts.MaliciousRate(), elapsed)
	if verdicts.Degraded > 0 {
		fmt.Printf("oracle: %d verdicts rest on partial (degraded) evidence\n", verdicts.Degraded)
	}
	fmt.Println()

	fmt.Println(report.RenderText())
	if report.Graph != nil {
		fmt.Println(report.Graph.RenderText())
	}

	conc := madave.Concentrate(report)
	fmt.Printf("Malvertising concentration: Gini %.2f, worst network holds %.1f%%, top 3 hold %.1f%%\n",
		conc.GiniIncidents, 100*conc.TopShare, 100*conc.Top3Share)
	if *days > 1 {
		fmt.Println("\nTimeline (per crawl day)")
		for _, p := range madave.Timeline(corp, verdicts) {
			fmt.Printf("  day %2d: %6d ads, %4d malicious (%.2f%%)\n",
				p.Day, p.Ads, p.Malicious, 100*p.Rate())
		}
	}

	if *project {
		fmt.Println()
		fmt.Print(report.ProjectTo(analysis.PaperCorpusSize).CompareToPaper())
	}
	if *figures {
		fmt.Println()
		fmt.Println(report.RenderFigures())
	}
	if *validate {
		v, err := study.Validate(corp, verdicts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		fmt.Print(v.String())
	}

	if *corpusOut != "" {
		f, err := os.Create(*corpusOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := corp.Save(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("corpus written to %s\n", *corpusOut)
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			log.Fatal(err)
		}
		writes := map[string]string{
			"table1.csv":             report.Table1CSV(),
			"figure1_networks.csv":   report.NetworksCSV(),
			"figure3_categories.csv": report.CategoriesCSV(),
			"figure4_tlds.csv":       report.TLDsCSV(),
			"figure5_chains.csv":     report.ChainSeriesCSV(),
			"clusters.csv":           report.ClustersCSV(),
		}
		for name, content := range writes {
			path := filepath.Join(*csvDir, name)
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote %s\n", path)
		}
	}

	var cmps []madave.Comparison
	if *defenses {
		fmt.Println("\nCountermeasures (§5)")
		var err error
		cmps, err = madave.EvaluateDefenses(study, results)
		if err != nil {
			log.Fatal(err)
		}
		for _, c := range cmps {
			fmt.Println("  " + c.String())
		}
	}

	if *mdOut != "" {
		var v *madave.Validation
		if *validate {
			v, _ = study.Validate(corp, verdicts)
		}
		md := madave.MarkdownReport("Malvertising study report", study, results, v, cmps)
		if err := os.WriteFile(*mdOut, []byte(md), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nMarkdown report written to %s\n", *mdOut)
	}

	checks := madave.PaperChecks(report)
	passed := 0
	for _, c := range checks {
		if c.Pass {
			passed++
		}
	}
	fmt.Printf("\nFidelity vs the paper: %d/%d checks pass\n", passed, len(checks))
	for _, c := range checks {
		if !c.Pass {
			fmt.Printf("  DEVIATION: %s (paper %s, measured %s)\n", c.Claim, c.Paper, c.Measured)
		}
	}

	flushTelemetry(study, tel, *metricsOut, *spansOut)
}

// runStream executes the crash-safe streaming service: a -checkpoint journal
// file makes commits survive process death, -serve switches from the finite
// schedule to a shedding impression stream, and the signal context drains the
// pipeline gracefully.
func runStream(ctx context.Context, study *madave.Study, tel *telemetry.Set, ops *opsd.Server,
	serve bool, checkpointPath string, drainTimeout time.Duration, impressions int, serveRate float64) error {
	var backend journal.Backend
	if checkpointPath != "" {
		fb, err := journal.OpenFile(checkpointPath)
		if err != nil {
			return err
		}
		defer fb.Close()
		backend = fb
	} else {
		fmt.Println("streaming without -checkpoint: journal is in-memory, progress dies with the process")
		backend = journal.NewMem()
	}
	svc, err := stream.NewService(study, stream.ServiceConfig{
		Stream:         stream.Config{DrainTimeout: drainTimeout, Tel: tel},
		Journal:        backend,
		Serve:          serve,
		MaxImpressions: impressions,
		ServeRate:      serveRate,
	})
	if err != nil {
		return err
	}
	if ops != nil {
		ops.AttachService(svc)
	}
	if rec := svc.Recovered(); rec > 0 {
		fmt.Printf("recovered %d committed visits from %s — they will not re-execute\n", rec, checkpointPath)
	}
	fmt.Printf("streaming: Ctrl-C drains in-flight visits (deadline %v); resume from the same journal to finish\n", drainTimeout)

	res, err := svc.Run(ctx)
	if err != nil {
		return err
	}
	sum := res.Summary
	fmt.Printf("stream: %d visits (%d page errors), %d ad frames, %d unique ads, %d malicious\n",
		sum.Visits, sum.PageErrors, sum.AdFrames, sum.UniqueAds, sum.Malicious)
	fmt.Printf("ops: recovered %d, committed %d, aborted %d, checkpoints %d, worker restarts %d\n",
		res.Ops.Recovered, res.Ops.Committed, res.Ops.Aborted, res.Ops.Checkpoints, res.Ops.Restarts)
	if serve {
		st := res.Ops.Shed
		fmt.Printf("admission: offered %d, delivered %d, shed %d (low-priority first, every shed counted)\n",
			st.Offered, st.Delivered, st.Shed)
	}
	if res.Graph.Scanned > 0 {
		fmt.Printf("graph oracle: %d of %d ads flagged (chain max %d, p90 %d)\n",
			res.Graph.Flagged, res.Graph.Scanned, res.Graph.ChainMax, res.Graph.ChainP90)
		fmt.Printf("graph summary: %s\n", res.Graph.JSON())
	}
	fmt.Printf("summary: %s\n", sum.JSON())
	return nil
}

// flushTelemetry prints the latency/cache tables and writes the optional
// metrics and span artifacts; shared by the batch and streaming paths.
func flushTelemetry(study *madave.Study, tel *telemetry.Set, metricsOut, spansOut string) {
	if table := tel.LatencyTable(); table != "" {
		fmt.Println("\nPipeline stage latencies")
		fmt.Print(table)
	}
	if cs := study.CacheStats(); len(cs) > 0 {
		fmt.Println("\nPipeline caches")
		fmt.Printf("  %-12s %10s %10s %9s %10s %10s %8s\n",
			"cache", "hits", "misses", "hit%", "coalesced", "evictions", "size")
		for _, st := range cs {
			fmt.Printf("  %-12s %10d %10d %8.1f%% %10d %10d %8d\n",
				st.Name, st.Hits, st.Misses, 100*st.HitRatio(),
				st.Coalesced, st.Evictions, st.Size)
		}
	}
	if metricsOut != "" {
		if err := writeMetrics(tel, metricsOut); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("metrics written to %s\n", metricsOut)
	}
	if spansOut != "" {
		if err := writeSpans(tel, spansOut); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d spans written to %s (%d dropped)\n",
			tel.Tracer.Len(), spansOut, tel.Tracer.Dropped())
	}
}

// writeMetrics dumps the registry: Prometheus text for .prom files, a JSON
// snapshot otherwise.
func writeMetrics(tel *telemetry.Set, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".prom") {
		err = tel.Registry.WritePrometheus(f)
	} else {
		err = tel.Registry.WriteJSON(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeSpans dumps the recorded spans: JSON lines for .jsonl files, Chrome
// trace_event (chrome://tracing / Perfetto) otherwise.
func writeSpans(tel *telemetry.Set, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".jsonl") {
		err = tel.Tracer.WriteJSONL(f)
	} else {
		err = tel.Tracer.WriteChromeTrace(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
