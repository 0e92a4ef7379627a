package madave

// TestEvalEquivalenceTreeWalkVsCompiled is the pipeline-level engine gate
// for ISSUE 6: over a simulated corpus, every honeyclient report must be
// byte-identical whether page scripts run on the bytecode VM (the default)
// or the tree-walking interpreter (-minijs-interp). The differential fuzzer
// proves per-script equivalence; this proves it composes through the full
// browser, detector, and scoring stack.

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"madave/internal/honeyclient"
)

func TestEvalEquivalenceTreeWalkVsCompiled(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus equivalence sweep is not a -short test")
	}
	cfg := DefaultConfig()
	cfg.Seed = 33
	cfg.CrawlSites = 400
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	corp, _ := s.CrawlSubset(s.Web.TopSlice(cfg.CrawlSites))
	ads := corp.All()
	if len(ads) == 0 {
		t.Fatal("empty corpus")
	}

	// The compiled side loads through the study's code cache, which the
	// crawl's strict loads filled; the tree-walk side parses afresh.
	compiled := honeyclient.New(s.Universe, cfg.Seed)
	compiled.CodeCache = s.Code
	tree := honeyclient.New(s.Universe, cfg.Seed)
	tree.MinijsInterp = true

	ctx := context.Background()
	for _, ad := range ads {
		rc := compiled.AnalyzeAdContext(ctx, ad.FrameURL, ad.Day)
		rt := tree.AnalyzeAdContext(ctx, ad.FrameURL, ad.Day)
		jc, err := json.Marshal(rc)
		if err != nil {
			t.Fatal(err)
		}
		jt, err := json.Marshal(rt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(jc, jt) {
			t.Fatalf("verdict divergence for %s (day %d):\n compiled: %s\n     tree: %s",
				ad.FrameURL, ad.Day, jc, jt)
		}
	}
	t.Logf("%d ads: compiled and tree-walk reports byte-identical", len(ads))
}
