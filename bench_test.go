package madave

// The benchmark harness regenerates every table and figure in the paper's
// evaluation (§4) plus the §5 countermeasures, reporting each experiment's
// headline number as a benchmark metric so `go test -bench` doubles as the
// reproduction run:
//
//	Table 1    -> BenchmarkTable1Classification      (malicious_pct)
//	Figure 1   -> BenchmarkFigure1NetworkMaliciousRatio (top_network_ratio)
//	Figure 2   -> BenchmarkFigure2NetworkAdShare     (rogue_share_pct)
//	§4.2       -> BenchmarkClusterShares             (top10k_ad_share_pct, ...)
//	Figure 3   -> BenchmarkFigure3Categories         (ent_news_share_pct)
//	Figure 4   -> BenchmarkFigure4TLDs               (generic_tld_share_pct)
//	Figure 5   -> BenchmarkFigure5ArbitrationChains  (malicious_chain_max, ...)
//	§4.4       -> BenchmarkSandboxUsage              (sandboxed_ads)
//	§5         -> BenchmarkDefenses                  (reduction_pct per defense)
//
// Ablations (see DESIGN.md §6) measure the design choices the paper's
// methodology depends on: the >5 blacklist threshold, EasyList matching
// precision, and the honeyclient's per-heuristic contribution.

import (
	"sync"
	"testing"

	"madave/internal/analysis"
	"madave/internal/blacklist"
	"madave/internal/defense"
	"madave/internal/easylist"
	"madave/internal/honeyclient"
	"madave/internal/oracle"
	"madave/internal/stats"
)

var (
	benchOnce sync.Once
	benchS    *Study
	benchR    *Results
)

// benchWorld runs one fixed study shared by every experiment benchmark.
func benchWorld(b *testing.B) (*Study, *Results) {
	b.Helper()
	benchOnce.Do(func() {
		cfg := DefaultConfig()
		cfg.Seed = 2014 // the venue year; any seed reproduces the shapes
		cfg.CrawlSites = 900
		s, err := NewStudy(cfg)
		if err != nil {
			panic(err)
		}
		benchS = s
		benchR = s.Run()
	})
	return benchS, benchR
}

// analyzeInput rebuilds the analysis input for per-iteration reruns.
func analyzeInput(s *Study, r *Results) analysis.Input {
	return analysis.Input{
		Corpus:     r.Corpus,
		Result:     r.Oracle,
		TotalSites: len(s.Web.Sites),
		CrawlStats: r.CrawlStats,
	}
}

// BenchmarkCrawl measures the collection phase (§3.1): full browser
// rendering of publisher pages, EasyList iframe classification, and corpus
// snapshotting.
func BenchmarkCrawl(b *testing.B) {
	s, _ := benchWorld(b)
	sites := s.Web.TopSlice(20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		corp, _ := s.CrawlSubset(sites)
		if corp.Len() == 0 {
			b.Fatal("no ads collected")
		}
	}
}

// BenchmarkTable1Classification regenerates Table 1: the oracle classifies
// the corpus and the incident mix is reported.
func BenchmarkTable1Classification(b *testing.B) {
	s, r := benchWorld(b)
	sample := sampleCorpus(r.Corpus, 300)
	b.ResetTimer()
	var res *oracle.Result
	for i := 0; i < b.N; i++ {
		res = s.Oracle.ClassifyCorpus(sample)
	}
	b.StopTimer()

	full := r.Oracle
	total := float64(full.MaliciousCount())
	b.ReportMetric(100*full.MaliciousRate(), "malicious_pct")                    // paper: ~1%
	b.ReportMetric(share(full, oracle.CatBlacklists, total), "blacklists_share") // paper: 72.6%
	b.ReportMetric(share(full, oracle.CatSuspRedirect, total), "redirect_share") // paper: 21.1%
	b.ReportMetric(share(full, oracle.CatHeuristics, total), "heuristics_share") // paper: 4.7%
	_ = res
}

func share(r *oracle.Result, cat oracle.Category, total float64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(r.ByCategory[cat]) / total
}

// BenchmarkFigure1NetworkMaliciousRatio regenerates Figure 1: per-network
// malvertising ratios, sorted.
func BenchmarkFigure1NetworkMaliciousRatio(b *testing.B) {
	s, r := benchWorld(b)
	in := analyzeInput(s, r)
	var rep *analysis.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep = analysis.Analyze(in)
	}
	b.StopTimer()
	if len(rep.Figure1) == 0 {
		b.Fatal("no offending networks")
	}
	b.ReportMetric(rep.Figure1[0].Ratio, "top_network_ratio") // paper: > 1/3
	b.ReportMetric(float64(len(rep.Figure1)), "offending_networks")
}

// BenchmarkFigure2NetworkAdShare regenerates Figure 2: volume share of the
// offending networks, highlighting the ~3% rogue.
func BenchmarkFigure2NetworkAdShare(b *testing.B) {
	s, r := benchWorld(b)
	in := analyzeInput(s, r)
	var rep *analysis.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep = analysis.Analyze(in)
	}
	b.StopTimer()
	if len(rep.Figure2) == 0 {
		b.Fatal("no rows")
	}
	// The paper's headline: the network responsible for the most
	// malvertisements held only ~3% of total ad volume.
	worst := rep.Figure2[0]
	for _, row := range rep.Figure2 {
		if row.Malicious > worst.Malicious {
			worst = row
		}
	}
	totalMal := 0
	for _, row := range rep.Figure2 {
		totalMal += row.Malicious
	}
	b.ReportMetric(100*worst.TotalShare, "rogue_volume_share_pct") // paper: ~3%
	b.ReportMetric(100*float64(worst.Malicious)/float64(totalMal), "rogue_incident_share_pct")
}

// BenchmarkClusterShares regenerates the §4.2 cluster split.
func BenchmarkClusterShares(b *testing.B) {
	s, r := benchWorld(b)
	in := analyzeInput(s, r)
	var rep *analysis.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep = analysis.Analyze(in)
	}
	b.StopTimer()
	b.ReportMetric(100*rep.Clusters.AdShare[analysis.ClusterTop], "top10k_ad_share_pct")    // paper: 76.6
	b.ReportMetric(100*rep.Clusters.MalShare[analysis.ClusterTop], "top10k_mal_share_pct")  // paper: 82.3
	b.ReportMetric(100*rep.Clusters.AdShare[analysis.ClusterBottom], "bottom_ad_share_pct") // paper: 11.6
}

// BenchmarkFigure3Categories regenerates Figure 3: categories of sites
// serving malvertisements.
func BenchmarkFigure3Categories(b *testing.B) {
	s, r := benchWorld(b)
	in := analyzeInput(s, r)
	var rep *analysis.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep = analysis.Analyze(in)
	}
	b.StopTimer()
	entNews := 0.0
	for _, row := range rep.Figure3 {
		if row.Category == "entertainment" || row.Category == "news" {
			entNews += row.Share
		}
	}
	b.ReportMetric(100*entNews, "ent_news_share_pct") // paper: ~1/3
}

// BenchmarkFigure4TLDs regenerates Figure 4: TLDs of malvertising sites.
func BenchmarkFigure4TLDs(b *testing.B) {
	s, r := benchWorld(b)
	in := analyzeInput(s, r)
	var rep *analysis.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep = analysis.Analyze(in)
	}
	b.StopTimer()
	comShare := 0.0
	if len(rep.Figure4) > 0 && rep.Figure4[0].TLD == "com" {
		comShare = rep.Figure4[0].Share
	}
	b.ReportMetric(100*comShare, "com_share_pct")                       // paper: majority
	b.ReportMetric(100*rep.GenericTLDMalShare, "generic_tld_share_pct") // paper: >66%
}

// BenchmarkFigure5ArbitrationChains regenerates Figure 5: benign vs
// malicious arbitration chain-length distributions.
func BenchmarkFigure5ArbitrationChains(b *testing.B) {
	s, r := benchWorld(b)
	in := analyzeInput(s, r)
	var rep *analysis.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep = analysis.Analyze(in)
	}
	b.StopTimer()
	b.ReportMetric(float64(rep.Figure5.Benign.Max()), "benign_chain_max")       // paper: 15
	b.ReportMetric(float64(rep.Figure5.Malicious.Max()), "malicious_chain_max") // paper: 30
	b.ReportMetric(100*rep.Figure5.Malicious.TailShare(15), "beyond15_pct")     // paper: ~2%
}

// BenchmarkSandboxUsage regenerates the §4.4 census: how many ad iframes
// carry the sandbox attribute.
func BenchmarkSandboxUsage(b *testing.B) {
	s, r := benchWorld(b)
	in := analyzeInput(s, r)
	var rep *analysis.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep = analysis.Analyze(in)
	}
	b.StopTimer()
	b.ReportMetric(float64(rep.Sandbox.SandboxedAds), "sandboxed_ads") // paper: 0
	b.ReportMetric(float64(rep.Sandbox.AdFrames), "ad_frames")
}

// BenchmarkDefenses measures the §5 countermeasures' exposure reductions.
func BenchmarkDefenses(b *testing.B) {
	s, r := benchWorld(b)
	var cmps []Comparison
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		cmps, err = EvaluateDefenses(s, r)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, c := range cmps {
		b.ReportMetric(100*c.Reduction(), c.Name+"_reduction_pct")
	}
}

// BenchmarkEasyListCorpusReplay replays every collected ad frame against
// the study's EasyList through the token-indexed engine — the workload the
// §5 adblock defense evaluation runs over the whole corpus — and
// BenchmarkEasyListCorpusReplayLinear is the same replay through the
// pre-index linear scan, so the speedup over the real corpus is visible
// alongside the synthetic-list microbenchmarks in internal/easylist.
func BenchmarkEasyListCorpusReplay(b *testing.B) {
	s, r := benchWorld(b)
	ads := r.Corpus.All()
	if len(ads) == 0 {
		b.Fatal("empty corpus")
	}
	ctx := easylist.NewRequestCtx()
	b.ReportAllocs()
	b.ResetTimer()
	blocked := 0
	for i := 0; i < b.N; i++ {
		ad := ads[i%len(ads)]
		if ok, _ := s.List.MatchCtx(ctx, easylist.Request{
			URL: ad.FrameURL, Type: easylist.TypeSubdocument, DocHost: ad.PubHost,
		}); ok {
			blocked++
		}
	}
	b.StopTimer()
	if blocked == 0 {
		b.Fatal("no ad frames blocked")
	}
}

func BenchmarkEasyListCorpusReplayLinear(b *testing.B) {
	s, r := benchWorld(b)
	ads := r.Corpus.All()
	if len(ads) == 0 {
		b.Fatal("empty corpus")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ad := ads[i%len(ads)]
		s.List.MatchLinear(easylist.Request{
			URL: ad.FrameURL, Type: easylist.TypeSubdocument, DocHost: ad.PubHost,
		})
	}
}

// ---- Ablations (DESIGN.md §6) ----

// BenchmarkAblationBlacklistThreshold compares the paper's ">5 lists" rule
// with naive 1-list matching: the naive rule floods the results with
// benign domains that appear on a list or two.
func BenchmarkAblationBlacklistThreshold(b *testing.B) {
	s, r := benchWorld(b)
	var strictFPs, naiveFPs int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		strict := blacklist.Build(s.Eco, s.Cfg.Seed)
		naive := blacklist.Build(s.Eco, s.Cfg.Seed)
		naive.Threshold = 0 // "any listing means malicious"
		strictFPs, naiveFPs = 0, 0
		for _, ad := range r.Corpus.All() {
			truth, _ := s.GroundTruth(ad)
			if truth == nil || truth.IsMalicious() {
				continue
			}
			if _, hit := strict.AnyMalicious(ad.Hosts); hit {
				strictFPs++
			}
			if _, hit := naive.AnyMalicious(ad.Hosts); hit {
				naiveFPs++
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(strictFPs), "fp_threshold5")
	b.ReportMetric(float64(naiveFPs), "fp_threshold0")
}

// BenchmarkAblationEasyListVsNaive compares EasyList iframe classification
// against naive "the URL contains 'ad'" substring matching.
func BenchmarkAblationEasyListVsNaive(b *testing.B) {
	s, _ := benchWorld(b)
	// Assemble labelled frame URLs: ad (network serve endpoints) and
	// content (widget + publisher pages).
	type labelled struct {
		url  string
		isAd bool
	}
	var frames []labelled
	for _, n := range s.Eco.Networks {
		frames = append(frames, labelled{"http://" + n.Domain + "/serve?pub=x&slot=0&imp=a&hop=0", true})
	}
	frames = append(frames, labelled{"http://cdn.widgetworks.com/embed?site=x", false})
	for _, site := range s.Web.TopSlice(60) {
		frames = append(frames, labelled{"http://" + site.Host + "/", false})
	}
	var elCorrect, naiveCorrect int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		elCorrect, naiveCorrect = 0, 0
		for _, f := range frames {
			el, _ := s.List.Match(easylist.Request{URL: f.url, Type: easylist.TypeSubdocument})
			if el == f.isAd {
				elCorrect++
			}
			naive := containsAd(f.url)
			if naive == f.isAd {
				naiveCorrect++
			}
		}
	}
	b.StopTimer()
	total := float64(len(frames))
	b.ReportMetric(100*float64(elCorrect)/total, "easylist_accuracy_pct")
	b.ReportMetric(100*float64(naiveCorrect)/total, "naive_accuracy_pct")
}

func containsAd(url string) bool {
	for i := 0; i+2 <= len(url); i++ {
		if url[i] == 'a' && url[i+1] == 'd' {
			return true
		}
	}
	return false
}

// BenchmarkAblationArbitrationPenalty sweeps the penalty threshold of the
// §5.1 ban policy: stricter thresholds ban more networks and cut exposure
// further.
func BenchmarkAblationArbitrationPenalty(b *testing.B) {
	s, _ := benchWorld(b)
	var strict, lax defense.Comparison
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		strict = defense.PenalizeNetworks(s.Eco, 100_000, 0.05, 1)
		lax = defense.PenalizeNetworks(s.Eco, 100_000, 0.30, 1)
	}
	b.StopTimer()
	b.ReportMetric(100*strict.Reduction(), "reduction_thresh05_pct")
	b.ReportMetric(100*lax.Reduction(), "reduction_thresh30_pct")
}

// BenchmarkAblationHoneyclientHeuristics toggles the honeyclient's
// detectors one at a time and reports how many incidents each configuration
// finds — each detector's contribution to Table 1.
func BenchmarkAblationHoneyclientHeuristics(b *testing.B) {
	s, r := benchWorld(b)
	// The sample keeps every incident ad (the ablation's subject) plus a
	// slice of benign ads for the false-positive side.
	flagged := map[string]bool{}
	for _, inc := range r.Oracle.Incidents {
		flagged[inc.AdHash] = true
	}
	sample := NewCorpus()
	benignKept := 0
	for _, ad := range r.Corpus.All() {
		if flagged[ad.Hash] {
			sample.Add(ad)
		} else if benignKept < 200 {
			benignKept++
			sample.Add(ad)
		}
	}

	classify := func(noRedirect, noHijack, noModel bool) int {
		h := honeyclient.New(s.Universe, s.Cfg.Seed)
		h.CodeCache = s.Code
		h.DisableRedirectHeuristics = noRedirect
		h.DisableHijackDetection = noHijack
		h.DisableModel = noModel
		ora := oracle.New(h, s.Oracle.Lists, s.Oracle.Scanner)
		ora.Parallelism = 8
		return ora.ClassifyCorpus(sample).MaliciousCount()
	}

	var full, noRedir, noHijack, noModel int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		full = classify(false, false, false)
		noRedir = classify(true, false, false)
		noHijack = classify(false, true, false)
		noModel = classify(false, false, true)
	}
	b.StopTimer()
	b.ReportMetric(float64(full), "incidents_full")
	b.ReportMetric(float64(full-noRedir), "lost_without_redirect_heur")
	b.ReportMetric(float64(full-noHijack), "lost_without_hijack_det")
	b.ReportMetric(float64(full-noModel), "lost_without_model")
}

// BenchmarkServeDecision measures the raw arbitration walk: the hot inner
// loop of every impression in the simulation.
func BenchmarkServeDecision(b *testing.B) {
	s, _ := benchWorld(b)
	rng := stats.NewRNG(1)
	n := len(s.Eco.Networks)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := s.Eco.Serve(rng, i%n)
		if d.Campaign == nil {
			b.Fatal("nil campaign")
		}
	}
}

// BenchmarkHoneyclientAnalyze measures one full instrumented ad execution —
// the oracle's unit of work.
func BenchmarkHoneyclientAnalyze(b *testing.B) {
	s, r := benchWorld(b)
	ads := r.Corpus.All()
	if len(ads) == 0 {
		b.Fatal("empty corpus")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := s.Oracle.Honey.Analyze(ads[i%len(ads)].FrameURL)
		if len(rep.Hosts) == 0 {
			b.Fatal("no hosts")
		}
	}
}

// sampleCorpus takes every k-th ad to build a smaller corpus.
func sampleCorpus(c *Corpus, n int) *Corpus {
	all := c.All()
	out := NewCorpus()
	if len(all) == 0 {
		return out
	}
	stride := len(all) / n
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < len(all); i += stride {
		out.Add(all[i])
	}
	return out
}
