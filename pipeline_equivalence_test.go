package madave

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"madave/internal/journal"
	"madave/internal/oracle"
	"madave/internal/stream"
)

// batchFingerprint renders every deterministic output of a batch study:
// crawl stats, the corpus, Table 1, the rendered report, the sorted
// incidents and the graph findings.
func batchFingerprint(r *Results) string {
	hashes := make([]string, 0, r.Corpus.Len())
	for _, ad := range r.Corpus.All() {
		hashes = append(hashes, ad.Hash)
	}
	sort.Strings(hashes)
	incs := make([]string, 0, len(r.Oracle.Incidents))
	for _, inc := range r.Oracle.Incidents {
		incs = append(incs, fmt.Sprintf("%s|%s|%s", inc.AdHash, inc.Category, inc.Evidence))
	}
	sort.Strings(incs)
	res := r.Oracle
	return fmt.Sprintf("stats %+v\nscanned=%d malicious=%d degraded=%d\ntable1 %v\n%s\ncorpus\n%s\nincidents\n%s\ngraph %s",
		*r.CrawlStats, res.Scanned, res.MaliciousCount(), res.Degraded, r.Report.Table1.Counts,
		r.Report.RenderText(), strings.Join(hashes, "\n"), strings.Join(incs, "\n"), graphDigest(res))
}

// TestBatchPipelineEquivalence is the gate for the pipelined batch study:
// Study.RunContext, which classifies each ad as the crawl first sees it,
// must produce exactly what the two separate phases produce — crawl
// everything, then classify the corpus, then analyze — with faults on or
// off, caches on or off, and the graph oracle on.
func TestBatchPipelineEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline equivalence skipped in -short mode")
	}
	const seed = 4343
	calm := telemetryStudyConfig(seed)
	calmCached := calm
	calmCached.Cache.Enabled = true
	chaos := chaosStudyConfig(seed)
	chaos.CrawlSites = 40
	chaosCached := chaos
	chaosCached.Cache.Enabled = true
	graph := calmCached
	graph.GraphOracle = true

	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"calm", calm},
		{"calm-cached", calmCached},
		{"chaos", chaos},
		{"chaos-cached", chaosCached},
		{"graph", graph},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewStudy(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			piped := s.RunContext(context.Background())

			s2, err := NewStudy(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			corp, st := s2.Crawl()
			res := s2.Classify(corp)
			phased := &Results{Corpus: corp, CrawlStats: st, Oracle: res, Report: s2.Analyze(corp, res, st)}

			if piped.Oracle.Scanned != piped.Corpus.Len() {
				t.Fatalf("pipelined run scanned %d of %d ads", piped.Oracle.Scanned, piped.Corpus.Len())
			}
			if tc.cfg.GraphOracle && piped.Oracle.GraphScanned == 0 {
				t.Fatal("graph oracle on but no ad carried a graph summary")
			}
			if got, want := batchFingerprint(piped), batchFingerprint(phased); got != want {
				t.Fatalf("pipelined run differs from crawl-then-classify:\npipelined:\n%s\nphased:\n%s", got, want)
			}
		})
	}
}

// TestBatchStreamEquivalence checks the batch study against the streaming
// service in schedule mode on the same seed: the same Table-1 categories,
// ad frames and unique ads.
func TestBatchStreamEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("batch/stream equivalence skipped in -short mode")
	}
	cfg := telemetryStudyConfig(4344)
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batch := s.RunContext(context.Background())

	s2, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := stream.NewService(s2, stream.ServiceConfig{Journal: journal.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	run, err := svc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sum := run.Summary

	if int64(sum.AdFrames) != batch.CrawlStats.AdFrames {
		t.Errorf("stream saw %d ad frames, batch %d", sum.AdFrames, batch.CrawlStats.AdFrames)
	}
	if sum.UniqueAds != batch.Corpus.Len() {
		t.Errorf("stream collected %d unique ads, batch %d", sum.UniqueAds, batch.Corpus.Len())
	}
	got := map[string]int{}
	for _, kv := range sum.Categories {
		got[kv.Key] = kv.Count
	}
	want := map[string]int{string(oracle.CatClean): batch.Oracle.Scanned - batch.Oracle.MaliciousCount()}
	for cat, n := range batch.Oracle.ByCategory {
		if n > 0 {
			want[string(cat)] = n
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("stream Table-1 categories %v, batch %v", got, want)
	}
	if batch.Oracle.MaliciousCount() == 0 {
		t.Error("batch study found no incidents: the comparison is vacuous")
	}
}
