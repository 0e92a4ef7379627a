package webgen

import (
	"sort"
	"strings"
	"testing"

	"madave/internal/stats"
	"madave/internal/urlx"
)

func genWeb(t *testing.T) *Web {
	t.Helper()
	w, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestGenerateBasics(t *testing.T) {
	w := genWeb(t)
	if len(w.Sites) != DefaultConfig().NumSites {
		t.Fatalf("sites = %d", len(w.Sites))
	}
	for i, s := range w.Sites {
		if s.Rank != i+1 {
			t.Fatalf("rank at index %d = %d", i, s.Rank)
		}
		if !strings.HasPrefix(s.Host, "www.") {
			t.Fatalf("host = %q", s.Host)
		}
		if s.Domain != strings.TrimPrefix(s.Host, "www.") {
			t.Fatalf("domain = %q host = %q", s.Domain, s.Host)
		}
		if got := urlx.TLD(s.Host); got != s.TLD {
			t.Fatalf("TLD mismatch: site says %q, urlx says %q for %q", s.TLD, got, s.Host)
		}
		if s.PrimaryNetwork < 0 || s.PrimaryNetwork >= DefaultConfig().NumNetworks {
			t.Fatalf("network index %d out of range", s.PrimaryNetwork)
		}
		if s.AdSlots < 0 || s.AdSlots > 8 {
			t.Fatalf("ad slots = %d", s.AdSlots)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	w1 := genWeb(t)
	w2 := genWeb(t)
	for i := range w1.Sites {
		if w1.Sites[i].Host != w2.Sites[i].Host ||
			w1.Sites[i].Category != w2.Sites[i].Category ||
			w1.Sites[i].AdSlots != w2.Sites[i].AdSlots {
			t.Fatalf("site %d differs between runs", i)
		}
	}
	cfg := DefaultConfig()
	cfg.Seed = 2
	w3, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range w1.Sites {
		if w1.Sites[i].Host == w3.Sites[i].Host {
			same++
		}
	}
	if same > len(w1.Sites)/100 {
		t.Fatalf("different seeds produced %d identical hosts", same)
	}
}

func TestUniqueDomains(t *testing.T) {
	w := genWeb(t)
	seen := map[string]bool{}
	for _, s := range w.Sites {
		if seen[s.Domain] {
			t.Fatalf("duplicate domain %q", s.Domain)
		}
		seen[s.Domain] = true
	}
}

func TestGenerateValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumSites = 15_000
	if _, err := Generate(cfg); err == nil {
		t.Fatal("small NumSites should fail")
	}
	cfg = DefaultConfig()
	cfg.NumNetworks = 0
	if _, err := Generate(cfg); err == nil {
		t.Fatal("zero networks should fail")
	}
}

func TestClusters(t *testing.T) {
	w := genWeb(t)
	n := len(w.Sites)
	if got := w.Sites[0].Cluster(n); got != ClusterTop {
		t.Fatalf("rank 1 cluster = %q", got)
	}
	if got := w.Sites[9_999].Cluster(n); got != ClusterTop {
		t.Fatalf("rank 10000 cluster = %q", got)
	}
	if got := w.Sites[10_000].Cluster(n); got != ClusterOther {
		t.Fatalf("rank 10001 cluster = %q", got)
	}
	if got := w.Sites[n-1].Cluster(n); got != ClusterBottom {
		t.Fatalf("last rank cluster = %q", got)
	}
	if got := w.Sites[n-10_000].Cluster(n); got != ClusterBottom {
		t.Fatalf("first bottom rank cluster = %q", got)
	}
}

func TestAdSlotsGradient(t *testing.T) {
	w := genWeb(t)
	topSlots, bottomSlots := 0, 0
	for _, s := range w.TopSlice(10_000) {
		topSlots += s.AdSlots
	}
	for _, s := range w.BottomSlice(10_000) {
		bottomSlots += s.AdSlots
	}
	if topSlots <= 4*bottomSlots {
		t.Fatalf("top cluster must out-monetize bottom heavily: top=%d bottom=%d", topSlots, bottomSlots)
	}
}

// The measured ad-share of the top cluster in a paper-style crawl set must
// land near the paper's 76.6% (±6 points). This is the generator-side half
// of the §4.2 calibration; the full-pipeline value is asserted in the core
// package's integration tests.
func TestClusterAdShareCalibration(t *testing.T) {
	w := genWeb(t)
	crawl := w.CrawlSet(3_000)
	total := 0
	clusterSlots := map[Cluster]int{}
	n := len(w.Sites)
	for _, s := range crawl {
		total += s.AdSlots
		clusterSlots[s.Cluster(n)] += s.AdSlots
	}
	if total == 0 {
		t.Fatal("no ad slots at all")
	}
	topShare := float64(clusterSlots[ClusterTop]) / float64(total)
	bottomShare := float64(clusterSlots[ClusterBottom]) / float64(total)
	if topShare < 0.70 || topShare > 0.83 {
		t.Fatalf("top cluster ad share = %.3f, want ~0.766", topShare)
	}
	if bottomShare > 0.18 {
		t.Fatalf("bottom cluster ad share = %.3f, want ~0.116", bottomShare)
	}
}

func TestCategoryDistribution(t *testing.T) {
	w := genWeb(t)
	counts := map[Category]int{}
	for _, s := range w.Sites {
		counts[s.Category]++
	}
	n := float64(len(w.Sites))
	entNews := float64(counts[CatEntertainment]+counts[CatNews]) / n
	if entNews < 0.28 || entNews > 0.38 {
		t.Fatalf("entertainment+news share = %.3f, want ~1/3", entNews)
	}
	// Adult must rank third among individual categories.
	adult := counts[CatAdult]
	higher := 0
	for cat, c := range counts {
		if cat != CatAdult && c > adult {
			higher++
		}
	}
	if higher != 2 {
		t.Fatalf("adult rank = %d (want 3rd): counts=%v", higher+1, counts)
	}
}

func TestTLDDistribution(t *testing.T) {
	w := genWeb(t)
	counts := map[string]int{}
	generic := 0
	for _, s := range w.Sites {
		counts[s.TLD]++
		if urlx.IsGenericTLD(s.TLD) {
			generic++
		}
	}
	n := len(w.Sites)
	if float64(counts["com"])/float64(n) < 0.45 {
		t.Fatalf(".com share = %.3f, want majority-ish", float64(counts["com"])/float64(n))
	}
	if float64(generic)/float64(n) < 0.66 {
		t.Fatalf("generic TLD share = %.3f, want > 0.66", float64(generic)/float64(n))
	}
}

func TestSlices(t *testing.T) {
	w := genWeb(t)
	top := w.TopSlice(100)
	if len(top) != 100 || top[0].Rank != 1 || top[99].Rank != 100 {
		t.Fatal("TopSlice wrong")
	}
	bottom := w.BottomSlice(50)
	if len(bottom) != 50 || bottom[49].Rank != len(w.Sites) {
		t.Fatal("BottomSlice wrong")
	}
	random := w.RandomSlice(500, 7)
	if len(random) != 500 {
		t.Fatalf("RandomSlice = %d", len(random))
	}
	seen := map[int]bool{}
	for _, s := range random {
		if s.Rank <= 10_000 || s.Rank > len(w.Sites)-10_000 {
			t.Fatalf("random site rank %d overlaps top/bottom clusters", s.Rank)
		}
		if seen[s.Rank] {
			t.Fatalf("duplicate rank %d in random slice", s.Rank)
		}
		seen[s.Rank] = true
	}
}

func TestCrawlSetDeduplicated(t *testing.T) {
	w := genWeb(t)
	crawl := w.CrawlSet(2_000)
	seen := map[string]bool{}
	for _, s := range crawl {
		if seen[s.Host] {
			t.Fatalf("duplicate host %q in crawl set", s.Host)
		}
		seen[s.Host] = true
	}
	if len(crawl) < 20_000 {
		t.Fatalf("crawl set only %d sites", len(crawl))
	}
	for i := 1; i < len(crawl); i++ {
		if crawl[i].Rank <= crawl[i-1].Rank {
			t.Fatal("crawl set not in rank order")
		}
	}
}

func TestAVFeed(t *testing.T) {
	w := genWeb(t)
	feed := w.AVFeed()
	frac := float64(len(feed)) / float64(len(w.Sites))
	if frac < 0.01 || frac > 0.03 {
		t.Fatalf("AV feed fraction = %.4f, want ~0.02", frac)
	}
}

func TestByHost(t *testing.T) {
	w := genWeb(t)
	s := w.Sites[42]
	if got := w.ByHost(s.Host); got != s {
		t.Fatal("ByHost lookup failed")
	}
	if w.ByHost("www.never-generated.test") != nil {
		t.Fatal("ByHost should return nil for unknown hosts")
	}
}

func TestCategoriesAndTLDsListing(t *testing.T) {
	if len(Categories()) != 11 {
		t.Fatalf("categories = %v", Categories())
	}
	if len(TLDs()) != 14 {
		t.Fatalf("tlds = %v", TLDs())
	}
}

func TestAVFeedShadyBias(t *testing.T) {
	w := genWeb(t)
	cfg := DefaultConfig()
	shadyStart := int(float64(cfg.NumNetworks) * (1 - cfg.ShadyNetworkFraction))

	feedShady, feedTotal := 0, 0
	otherShady, otherTotal := 0, 0
	for _, s := range w.Sites {
		if s.InAVFeed {
			feedTotal++
			if s.PrimaryNetwork >= shadyStart {
				feedShady++
			}
		} else {
			otherTotal++
			if s.PrimaryNetwork >= shadyStart {
				otherShady++
			}
		}
	}
	if feedTotal == 0 {
		t.Fatal("no AV feed sites")
	}
	feedRate := float64(feedShady) / float64(feedTotal)
	otherRate := float64(otherShady) / float64(otherTotal)
	if feedRate < 0.3 {
		t.Fatalf("AV-feed shady affiliation = %.2f, want ~0.35+", feedRate)
	}
	if feedRate < otherRate*3 {
		t.Fatalf("AV-feed sites not skewed: feed %.2f vs others %.2f", feedRate, otherRate)
	}
}

// crawlSetRef and randomSliceRef are the map-and-sort construction of the
// crawl set that CrawlSet and RandomSlice replace, kept as their reference.
func crawlSetRef(w *Web, randomN int) []*Site {
	seen := make(map[string]bool)
	var out []*Site
	add := func(sites []*Site) {
		for _, s := range sites {
			if !seen[s.Host] {
				seen[s.Host] = true
				out = append(out, s)
			}
		}
	}
	add(w.TopSlice(10_000))
	add(w.BottomSlice(10_000))
	add(randomSliceRef(w, randomN, w.cfg.Seed))
	add(w.AVFeed())
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}

func randomSliceRef(w *Web, n int, seed uint64) []*Site {
	rng := stats.NewRNG(seed).Fork("randomslice")
	lo, hi := 10_000, len(w.Sites)-10_000
	if hi <= lo {
		return nil
	}
	pool := hi - lo
	if n > pool {
		n = pool
	}
	picked := make(map[int]bool, n)
	var out []*Site
	for len(out) < n {
		idx := lo + rng.Intn(pool)
		if picked[idx] {
			continue
		}
		picked[idx] = true
		out = append(out, w.Sites[idx])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}

func sameSites(a, b []*Site) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCrawlSetMatchesMapAndSortReference(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.NumSites = 23_000
		w, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// 0, a few, the default-sized sample, and more than the middle
		// holds (the sample is capped at the whole middle).
		for _, n := range []int{0, 1, 500, 2_000, 3_000, 5_000} {
			if got, want := w.RandomSlice(n, seed+3), randomSliceRef(w, n, seed+3); !sameSites(got, want) {
				t.Fatalf("seed %d: RandomSlice(%d) differs from the reference (%d vs %d sites)", seed, n, len(got), len(want))
			}
			if got, want := w.CrawlSet(n), crawlSetRef(w, n); !sameSites(got, want) {
				t.Fatalf("seed %d: CrawlSet(%d) differs from the reference (%d vs %d sites)", seed, n, len(got), len(want))
			}
		}
	}
}
