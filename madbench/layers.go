package main

import (
	"context"
	"fmt"
	"net/url"
	"sort"
	"strings"
	"time"

	"madave/internal/adnet"
	"madave/internal/core"
	"madave/internal/corpus"
	"madave/internal/crawler"
	"madave/internal/easylist"
	"madave/internal/honeyclient"
	"madave/internal/htmlparse"
	"madave/internal/minijs"
	"madave/internal/oracle"
	"madave/internal/stream"
	"madave/internal/webgen"
)

// layerUnits lists every per-layer metric with its unit, in report order.
// A layer that does no work on a workload reports 0 there.
var layerUnits = []struct{ name, unit string }{
	{"webgen.generate_s", "s"},
	{"adnet.generate_s", "s"},
	{"easylist.build_s", "s"},
	{"crawler.phase_s", "s"},
	{"crawler.visit_p50_us", "us"},
	{"crawler.visit_p99_us", "us"},
	{"crawler.ads_per_visit", "count"},
	{"memnet.roundtrips_per_ad", "count"},
	{"memnet.busy_s", "s"},
	{"easylist.match_ns", "ns"},
	{"easylist.ad_frame_ratio", "ratio"},
	{"htmlparse.parse_us", "us"},
	{"htmlparse.mb_per_s", "MB/s"},
	{"minijs.compile_cold_us", "us"},
	{"minijs.load_warm_us", "us"},
	{"minijs.distinct_script_ratio", "ratio"},
	{"oracle.phase_s", "s"},
	{"honeyclient.analyze_p50_us", "us"},
	{"honeyclient.analyze_p99_us", "us"},
	{"honeyclient.degraded", "count"},
	{"honeyclient.cache_hit_ratio", "ratio"},
	{"blacklist.lookup_ns", "ns"},
	{"blacklist.memo_hit_ratio", "ratio"},
	{"avscan.scans", "count"},
	{"flowgraph.build_us", "us"},
	{"flowgraph.edges_per_ad", "count"},
	{"analysis.analyze_ms", "ms"},
	{"journal.append_p50_us", "us"},
	{"journal.append_p99_us", "us"},
	{"journal.bytes_per_visit", "B"},
	{"journal.compact_ms", "ms"},
	{"journal.compactions", "count"},
	{"journal.replay_ms", "ms"},
	{"stream.fold_us", "us"},
	{"stream.offered", "count"},
	{"stream.delivered", "count"},
	{"stream.shed", "count"},
	{"stream.aborted", "count"},
	{"stream.restarts", "count"},
	{"failed_ratio", "ratio"},
	{"shed_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// How many times the set-up generators and the analysis are replayed.
const (
	setupRepeats    = 5
	analysisRepeats = 5
)

// layers holds per-layer metric values by name.
type layers map[string]float64

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// setupLayers times the generators NewStudy runs, replayed with the study's
// own configuration.
func setupLayers(l layers, study *core.Study) error {
	var web, ads, list []float64
	for i := 0; i < setupRepeats; i++ {
		t := time.Now()
		if _, err := webgen.Generate(study.Cfg.Web); err != nil {
			return err
		}
		web = append(web, time.Since(t).Seconds())
		t = time.Now()
		if _, err := adnet.Generate(study.Cfg.Ads); err != nil {
			return err
		}
		ads = append(ads, time.Since(t).Seconds())
		t = time.Now()
		if _, err := easylist.ParseString(study.Server.BuildEasyList()); err != nil {
			return err
		}
		list = append(list, time.Since(t).Seconds())
	}
	l["webgen.generate_s"] = median(web)
	l["adnet.generate_s"] = median(ads)
	l["easylist.build_s"] = median(list)
	return nil
}

// memnetTotals counts the round trips named name and sums their time (round
// trips are leaves, so their self time is their duration).
func memnetTotals(spans []span, name string) (n int, busy time.Duration) {
	for _, s := range spans {
		if s.Name == name {
			n++
			busy += s.dur()
		}
	}
	return n, busy
}

// crawlReplay is CrawlOne replayed, one visit at a time, through a timed
// transport.
type crawlReplay struct {
	ads        []*corpus.Ad
	self       []float64
	selfTotal  time.Duration
	roundtrips int
	busy       time.Duration
	docs       []htmlDoc
}

func replayCrawl(study *core.Study, visits []crawler.Visit) crawlReplay {
	tr, docs := newTracer(), &docSink{}
	cr := study.StreamCrawler()
	cr.Transport = tr.transport(study.Universe, "memnet.crawler", docs)
	ids := make([]int64, len(visits))
	var r crawlReplay
	for i, v := range visits {
		var out *crawler.VisitOutcome
		ids[i], _ = tr.run("crawler.visit", func() { out = cr.CrawlOne(context.Background(), v) })
		for _, ha := range out.Ads {
			r.ads = append(r.ads, ha.Ad)
		}
	}
	spans := tr.snapshot()
	self := selfTimes(spans)
	for _, id := range ids {
		r.self = append(r.self, us(self[id]))
		r.selfTotal += self[id]
	}
	r.roundtrips, r.busy = memnetTotals(spans, "memnet.crawler")
	r.docs = docs.all()
	return r
}

// htmlLayers times htmlparse over every HTML document the crawl received and
// EasyList over every iframe of the top-level pages, as the crawler matches
// them: a subdocument request from the publisher's host. It returns how many
// iframes it matched and how many of them were ads.
func htmlLayers(l layers, docs []htmlDoc, list *easylist.List) (frames, adFrames int) {
	var parse []float64
	var bytes int
	var total time.Duration
	type frameReq struct{ url, host string }
	var reqs []frameReq
	for _, d := range docs {
		t := time.Now()
		root := htmlparse.Parse(d.Body)
		el := time.Since(t)
		parse = append(parse, us(el))
		total += el
		bytes += len(d.Body)
		if !d.Top {
			continue
		}
		base, err := url.Parse(d.URL)
		if err != nil {
			continue
		}
		for _, f := range root.Find("iframe") {
			src, ok := f.Attr("src")
			if !ok || src == "" {
				continue
			}
			ref, err := url.Parse(src)
			if err != nil {
				continue
			}
			reqs = append(reqs, frameReq{base.ResolveReference(ref).String(), base.Hostname()})
		}
	}
	l["htmlparse.parse_us"] = median(parse)
	l["htmlparse.mb_per_s"] = ratio(float64(bytes)/1e6, total.Seconds())

	if len(reqs) == 0 {
		return 0, 0
	}
	mctx := easylist.NewRequestCtx()
	var per []float64
	for round := 0; round < 3; round++ {
		adFrames = 0
		t := time.Now()
		for _, f := range reqs {
			if blocked, _ := list.MatchCtx(mctx, easylist.Request{URL: f.url, Type: easylist.TypeSubdocument, DocHost: f.host}); blocked {
				adFrames++
			}
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/float64(len(reqs)))
	}
	l["easylist.match_ns"] = median(per)
	l["easylist.ad_frame_ratio"] = ratio(float64(adFrames), float64(len(reqs)))
	return len(reqs), adFrames
}

// minijsLayers times parsing and compiling the inline scripts of the ad
// snapshots cold (every distinct script once, as a crawler browser without a
// code cache does on every visit) and loading them from a warm code cache.
func minijsLayers(l layers, ads []*corpus.Ad) {
	var scripts []string
	for _, ad := range ads {
		for _, s := range htmlparse.Parse(ad.HTML).Find("script") {
			if _, external := s.Attr("src"); external {
				continue
			}
			if src := s.InnerText(); strings.TrimSpace(src) != "" {
				scripts = append(scripts, src)
			}
		}
	}
	if len(scripts) == 0 {
		return
	}
	seen := map[string]bool{}
	var distinct []string
	for _, s := range scripts {
		if !seen[s] {
			seen[s] = true
			distinct = append(distinct, s)
		}
	}
	ctx := context.Background()
	var cold []float64
	for _, src := range distinct {
		t := time.Now()
		prog, _ := minijs.ParseTolerant(src)
		_ = minijs.CompileProgram(ctx, prog) // a rejected shape falls back to the tree-walker; the cost is still paid
		cold = append(cold, us(time.Since(t)))
	}
	// Room for every script, so no warm load is an eviction's recompile.
	cc := minijs.NewCodeCache(4*len(distinct), nil)
	for _, src := range distinct {
		cc.Load(ctx, src, true) //nolint:errcheck // warming only
	}
	var warm []float64
	for _, src := range scripts {
		t := time.Now()
		cc.Load(ctx, src, true) //nolint:errcheck // tolerant loads return no error
		warm = append(warm, us(time.Since(t)))
	}
	l["minijs.compile_cold_us"] = median(cold)
	l["minijs.load_warm_us"] = median(warm)
	l["minijs.distinct_script_ratio"] = ratio(float64(len(distinct)), float64(len(scripts)))
}

// oracleReplay is the honeyclient's uncached AnalyzeContext replayed, one ad
// at a time, through a timed transport.
type oracleReplay struct {
	self      []float64
	selfTotal time.Duration
	degraded  int
	scans     int
	lookupNS  float64
	graphDiff []float64 // graph-on minus graph-off analyze time per ad, µs
}

// replayOracle analyzes the ads again. category gives each ad's verdict in
// the run (absent = clean), which decides whether the oracle reached the
// payload scan for it. With graph set, each ad is also analyzed by a
// graph-off honeyclient, alternating which goes first, and the difference
// is the flow-graph cost.
func replayOracle(study *core.Study, ads []*corpus.Ad, category map[string]oracle.Category, graph bool) oracleReplay {
	tr := newTracer()
	hc := study.Oracle.Honey
	hc.Transport = tr.transport(study.Universe, "memnet.honeyclient", nil)
	var plain *honeyclient.Honeyclient
	if graph {
		plain = honeyclient.New(study.Universe, study.Cfg.Seed)
		plain.Transport = newTracer().transport(study.Universe, "memnet.honeyclient", nil)
	}
	ctx := context.Background()
	ids := make([]int64, len(ads))
	var r oracleReplay
	var hosts [][]string
	for j, ad := range ads {
		var rep *honeyclient.Report
		var plainDur time.Duration
		runPlain := func() {
			t := time.Now()
			plain.AnalyzeContext(ctx, ad.FrameURL)
			plainDur = time.Since(t)
		}
		if graph && j%2 == 1 {
			runPlain()
		}
		var d time.Duration
		ids[j], d = tr.run("honeyclient.analyze", func() { rep = hc.AnalyzeContext(ctx, ad.FrameURL) })
		if graph && j%2 == 0 {
			runPlain()
		}
		if graph {
			r.graphDiff = append(r.graphDiff, us(d-plainDur))
		}
		if rep.Degraded {
			r.degraded++
		}
		switch category[ad.Hash] {
		case oracle.CatBlacklists, oracle.CatSuspRedirect, oracle.CatHeuristics:
		default:
			r.scans += len(rep.Downloads)
		}
		hosts = append(hosts, append(append([]string(nil), ad.Hosts...), rep.Hosts...))
	}
	self := selfTimes(tr.snapshot())
	for _, id := range ids {
		r.self = append(r.self, us(self[id]))
		r.selfTotal += self[id]
	}

	var per []float64
	for round := 0; round < 3; round++ {
		n := 0
		t := time.Now()
		for _, hs := range hosts {
			for _, h := range hs {
				study.Oracle.Lists.IsMalicious(h)
				n++
			}
		}
		per = append(per, ratio(float64(time.Since(t).Nanoseconds()), float64(n)))
	}
	r.lookupNS = median(per)
	return r
}

// oracleLayers fills the oracle-side metrics common to every workload.
func oracleLayers(l layers, or oracleReplay) {
	l["honeyclient.analyze_p50_us"] = percentile(or.self, 0.5)
	l["honeyclient.analyze_p99_us"] = percentile(or.self, 0.99)
	l["blacklist.lookup_ns"] = or.lookupNS
	l["avscan.scans"] = float64(or.scans)
	if len(or.graphDiff) > 0 {
		l["flowgraph.build_us"] = median(or.graphDiff)
	}
}

// cacheLayers reads the hit ratios of the run's oracle caches (0 when off).
func cacheLayers(l layers, study *core.Study) {
	if st, ok := study.Oracle.Honey.CacheStats(); ok {
		l["honeyclient.cache_hit_ratio"] = st.HitRatio()
	}
	if st, ok := study.Oracle.Lists.MemoStats(); ok {
		l["blacklist.memo_hit_ratio"] = st.HitRatio()
	}
}

// batchLayers computes the per-layer metrics of a traced batch-study run.
func (e *env) batchLayers(l layers, b *batchRun) {
	cacheLayers(l, b.study)
	spans := b.tr.snapshot()
	self := selfTimes(spans)
	l["crawler.phase_s"] = self[b.crawlID].Seconds()
	l["oracle.phase_s"] = self[b.oracleID].Seconds()
	st := b.res.CrawlStats
	l["crawler.ads_per_visit"] = ratio(float64(st.AdFrames), float64(st.PagesVisited))
	crawlRT, crawlBusy := memnetTotals(spans, "memnet.crawler")
	hcRT, hcBusy := memnetTotals(spans, "memnet.honeyclient")
	l["memnet.roundtrips_per_ad"] = ratio(float64(crawlRT+hcRT), float64(b.ads))
	l["memnet.busy_s"] = (crawlBusy + hcBusy).Seconds()
	l["honeyclient.degraded"] = float64(b.res.Oracle.Degraded)

	var an []float64
	want := b.res.Report.RenderText()
	for i := 0; i < analysisRepeats; i++ {
		t := time.Now()
		rep := b.study.Analyze(b.res.Corpus, b.res.Oracle, b.res.CrawlStats)
		an = append(an, float64(time.Since(t))/float64(time.Millisecond))
		e.expect(rep.RenderText() == want, "batch-study: replayed analysis differs from the run's")
	}
	l["analysis.analyze_ms"] = median(an)

	// Crawl side: the traced run's own documents feed htmlparse and
	// EasyList; CrawlOne replays give per-visit latency; the corpus gives
	// the ad-snapshot scripts.
	frames, adFrames := htmlLayers(l, b.docs.all(), b.study.List)
	e.expect(int64(frames) == st.FramesSeen && int64(adFrames) == st.AdFrames,
		"batch-study: EasyList replay saw %d frames (%d ads), the crawl %d (%d)", frames, adFrames, st.FramesSeen, st.AdFrames)
	cr := replayCrawl(b.study, b.study.StreamCrawler().Visits(b.study.CrawlSites()))
	l["crawler.visit_p50_us"] = percentile(cr.self, 0.5)
	l["crawler.visit_p99_us"] = percentile(cr.self, 0.99)
	ads := b.res.Corpus.All()
	minijsLayers(l, ads)

	category := map[string]oracle.Category{}
	for _, inc := range b.res.Oracle.Incidents {
		category[inc.AdHash] = inc.Category
	}
	oracleLayers(l, replayOracle(b.study, ads, category, false))
}

// streamLayers computes the per-layer metrics of a traced stream-durable or
// serve-paced run.
func (e *env) streamLayers(l layers, s *streamRun) error {
	cacheLayers(l, s.study)
	spans := s.tr.snapshot()
	sum := s.res.Summary
	l["crawler.ads_per_visit"] = ratio(float64(sum.AdFrames), float64(sum.Visits))
	if s.res.Graph.Scanned > 0 {
		l["flowgraph.edges_per_ad"] = ratio(float64(s.res.Graph.Edges), float64(s.res.Graph.Scanned))
	}

	// Journal: the probe's spans and frames.
	var appendUS []float64
	for _, sp := range spans {
		if sp.Name == "journal.append" {
			appendUS = append(appendUS, us(sp.dur()))
		}
	}
	l["journal.append_p50_us"] = percentile(appendUS, 0.5)
	l["journal.append_p99_us"] = percentile(appendUS, 0.99)
	bytes := 0
	for _, f := range s.frames {
		bytes += f.size
	}
	l["journal.bytes_per_visit"] = ratio(float64(bytes), float64(len(s.frames)))
	var compact []float64
	for _, d := range s.probe.compactions {
		compact = append(compact, float64(d)/float64(time.Millisecond))
	}
	l["journal.compact_ms"] = median(compact)
	l["journal.compactions"] = float64(len(compact))

	// Aggregate: fold the committed records again, in sequence order, and
	// check the fold reproduces the run's summary.
	frames := append([]visitFrame(nil), s.frames...)
	sort.Slice(frames, func(i, j int) bool { return frames[i].rec.Seq < frames[j].rec.Seq })
	agg := stream.NewAgg()
	var fold []float64
	for _, f := range frames {
		t := time.Now()
		agg.Fold(f.rec)
		fold = append(fold, us(time.Since(t)))
	}
	l["stream.fold_us"] = median(fold)
	e.expect(string(agg.Summary().JSON()) == string(sum.JSON()), "%s: folding the journaled records again gives another summary", s.name())

	ops := s.res.Ops
	if s.serve {
		l["stream.offered"] = float64(ops.Shed.Offered)
		l["stream.delivered"] = float64(ops.Shed.Delivered)
		l["stream.shed"] = float64(ops.Shed.Shed)
	} else {
		l["stream.offered"] = float64(ops.Committed + ops.Aborted)
		l["stream.delivered"] = float64(ops.Committed + ops.Aborted)
	}
	l["stream.aborted"] = float64(ops.Aborted)
	l["stream.restarts"] = float64(ops.Restarts)

	// Crawl side: replay the committed visits through CrawlOne.
	visits, err := visitsOf(s.study, frames)
	if err != nil {
		return err
	}
	cr := replayCrawl(s.study, visits)
	l["crawler.phase_s"] = cr.selfTotal.Seconds()
	l["crawler.visit_p50_us"] = percentile(cr.self, 0.5)
	l["crawler.visit_p99_us"] = percentile(cr.self, 0.99)
	htmlLayers(l, cr.docs, s.study.List)
	minijsLayers(l, cr.ads)

	// Oracle side: the replayed visits' ads, with their journaled verdicts.
	category := map[string]oracle.Category{}
	for _, f := range frames {
		for _, ad := range f.rec.Ads {
			category[ad.Hash] = oracle.Category(ad.Category)
		}
	}
	hcRT, hcBusy := memnetTotals(spans, "memnet.honeyclient")
	or := replayOracle(s.study, cr.ads, category, !s.serve)
	oracleLayers(l, or)
	l["oracle.phase_s"] = or.selfTotal.Seconds()
	l["honeyclient.degraded"] = float64(or.degraded)
	l["memnet.roundtrips_per_ad"] = ratio(float64(cr.roundtrips+hcRT), float64(sum.AdFrames))
	l["memnet.busy_s"] = (cr.busy + hcBusy).Seconds()
	e.expect(len(cr.ads) == sum.AdFrames, "%s: replaying the committed visits harvested %d ads, the run %d", s.name(), len(cr.ads), sum.AdFrames)
	if st, ok := s.study.Oracle.Scanner.CacheStats(); ok {
		e.expect(int64(or.scans) == st.Hits+st.Misses, "%s: replay counts %d payload scans, the scanner %d", s.name(), or.scans, st.Hits+st.Misses)
	}
	return nil
}

// visitsOf rebuilds the crawl visits of journaled records from their keys.
func visitsOf(study *core.Study, frames []visitFrame) ([]crawler.Visit, error) {
	sites := make(map[string]*webgen.Site, len(study.Web.Sites))
	for _, s := range study.Web.Sites {
		sites[s.Host] = s
	}
	out := make([]crawler.Visit, 0, len(frames))
	for _, f := range frames {
		key := f.rec.Key
		i := strings.LastIndexByte(key, '|')
		var v crawler.Visit
		if i > 0 {
			v.Site = sites[key[:i]]
			fmt.Sscanf(key[i+1:], "d%dr%d", &v.Day, &v.Refresh) //nolint:errcheck // checked by the round trip below
		}
		if v.Site == nil || v.Key() != key {
			return nil, fmt.Errorf("madbench: cannot rebuild the visit of journal key %q", key)
		}
		out = append(out, v)
	}
	return out, nil
}
