package core

import (
	"context"
	"testing"
	"time"

	"madave/internal/minijs"
	"madave/internal/telemetry"
)

// pipelineConfig is a small study for the RunContext pipeline tests.
func pipelineConfig(sites int) Config {
	cfg := DefaultConfig()
	cfg.CrawlSites = sites
	cfg.Crawl.Days = 1
	cfg.Crawl.Refreshes = 5
	cfg.Crawl.Parallelism = 2
	cfg.OracleParallelism = 2
	return cfg
}

// TestRunContextCancelKeepsFinishedVerdicts cancels a batch run mid-crawl.
// The run must report the verdicts that finished before the cancel — an
// interrupted study's partial tables cover what it classified, not nothing —
// and must drop, not count, the verdicts the cancel cut short.
func TestRunContextCancelKeepsFinishedVerdicts(t *testing.T) {
	cfg := pipelineConfig(200)
	tel := telemetry.New(cfg.Seed)
	cfg.Telemetry = tel
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	planned := int64(len(s.StreamCrawler().Visits(s.CrawlSites())))

	// Cancel once a fifth of the visits are done.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pages := tel.Counter("crawl_pages_visited_total")
	go func() {
		for pages.Value() < planned/5 && ctx.Err() == nil {
			time.Sleep(100 * time.Microsecond)
		}
		cancel()
	}()
	r := s.RunContext(ctx)

	if r.CrawlStats.PagesVisited >= planned {
		t.Fatalf("crawl visited all %d pages: the cancel came too late to test anything", planned)
	}
	res := r.Oracle
	if res.Scanned == 0 {
		t.Fatalf("interrupted run classified nothing: %d pages visited, %d ads collected",
			r.CrawlStats.PagesVisited, r.Corpus.Len())
	}
	if res.Scanned > r.Corpus.Len() {
		t.Fatalf("scanned %d ads, corpus holds %d", res.Scanned, r.Corpus.Len())
	}
	if res.Degraded != 0 {
		t.Fatalf("%d degraded verdicts: a cut-short verdict was counted", res.Degraded)
	}
	if r.Report.Table1.Scanned != res.Scanned {
		t.Fatalf("report covers %d ads, oracle scanned %d", r.Report.Table1.Scanned, res.Scanned)
	}
	if res.MaliciousCount() != len(res.Incidents) {
		t.Fatalf("ByCategory sums to %d, %d incidents listed", res.MaliciousCount(), len(res.Incidents))
	}
	// Every kept incident is the verdict an uninterrupted classification
	// reaches.
	for _, inc := range res.Incidents {
		ad := r.Corpus.Get(inc.AdHash)
		if ad == nil {
			t.Fatalf("incident %s is not in the corpus", inc.AdHash)
		}
		if want := s.Oracle.Classify(ad); want.Category != inc.Category || want.Evidence != inc.Evidence {
			t.Fatalf("incident %s: %s (%s), uninterrupted %s (%s)",
				inc.AdHash, inc.Category, inc.Evidence, want.Category, want.Evidence)
		}
	}
}

// codeCacheCounts reads the study code cache's counters.
func codeCacheCounts(tel *telemetry.Set) (hits, misses, compiles int64) {
	hits, _ = tel.Registry.CounterValue("cache_hits_total", telemetry.L("cache", "minijs_code"))
	misses, _ = tel.Registry.CounterValue("cache_misses_total", telemetry.L("cache", "minijs_code"))
	compiles, _ = tel.Registry.CounterValue("minijs_compile_total")
	return hits, misses, compiles
}

// TestRunContextHoneyclientHitsCodeCache pins the reuse RunContext exists
// for: the honeyclient re-executes each ad while the crawl's compiled
// scripts are still cached, so none of its script loads misses. The code
// cache is sized far below the corpus, so a run that crawled everything
// before classifying would evict nearly every script first and fail here.
func TestRunContextHoneyclientHitsCodeCache(t *testing.T) {
	const capacity = 256
	run := func(classify bool) (hits, misses, compiles int64, ads int) {
		cfg := pipelineConfig(60)
		tel := telemetry.New(cfg.Seed)
		cfg.Telemetry = tel
		s, err := NewStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Code = minijs.NewCodeCache(capacity, tel)
		s.Oracle.Honey.CodeCache = s.Code
		if classify {
			r := s.RunContext(context.Background())
			ads = r.Oracle.Scanned
		} else {
			corp, _ := s.Crawl()
			ads = corp.Len()
		}
		hits, misses, compiles = codeCacheCounts(tel)
		return hits, misses, compiles, ads
	}
	crawlHits, crawlMisses, crawlCompiles, ads := run(false)
	hits, misses, compiles, scanned := run(true)
	if ads < 2*capacity {
		t.Fatalf("corpus of %d ads is too small to overflow a %d-entry cache", ads, capacity)
	}
	if scanned != ads {
		t.Fatalf("scanned %d of %d ads", scanned, ads)
	}
	if misses != crawlMisses || compiles != crawlCompiles {
		t.Fatalf("honeyclient script loads missed the code cache: %d misses and %d compiles, the crawl alone %d and %d",
			misses, compiles, crawlMisses, crawlCompiles)
	}
	if hits-crawlHits < int64(scanned) {
		t.Fatalf("honeyclient hit the code cache %d times for %d ads", hits-crawlHits, scanned)
	}
}
