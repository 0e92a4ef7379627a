// Package webgen generates the synthetic web the study crawls: publisher
// websites with Alexa-like popularity ranks, content categories, top-level
// domains, and advertising slots.
//
// The generator replaces the paper's two live data feeds (the Alexa top-1M
// list slices and an antivirus company's URL feed) with a deterministic
// population whose marginal distributions are calibrated to what the paper
// observed, so that the measured pipeline reproduces Figures 3 and 4 and the
// §4.2 cluster shares from first principles rather than by construction.
package webgen

import (
	"fmt"

	"madave/internal/stats"
)

// Category is a website content category (the paper's Figure 3 taxonomy).
type Category string

// Categories used by the generator. Entertainment and news together make up
// roughly one third of malvertising-affected sites in the paper; adult is
// third-ranked.
const (
	CatEntertainment Category = "entertainment"
	CatNews          Category = "news"
	CatAdult         Category = "adult"
	CatShopping      Category = "shopping"
	CatSports        Category = "sports"
	CatTechnology    Category = "technology"
	CatFinance       Category = "finance"
	CatGames         Category = "games"
	CatTravel        Category = "travel"
	CatEducation     Category = "education"
	CatOther         Category = "other"
)

// categoryWeights calibrates the category mix of ad-carrying sites.
var categoryWeights = []struct {
	Cat    Category
	Weight float64
}{
	{CatEntertainment, 18},
	{CatNews, 15},
	{CatAdult, 12},
	{CatShopping, 10},
	{CatSports, 8},
	{CatTechnology, 8},
	{CatFinance, 6},
	{CatGames, 6},
	{CatTravel, 5},
	{CatEducation, 4},
	{CatOther, 8},
}

// tldWeights calibrates the TLD mix. Generic TLDs (led by .com and .net)
// must carry the majority of traffic (paper: >66% of malvertising on
// gTLDs, .com the outright majority).
var tldWeights = []struct {
	TLD    string
	Weight float64
}{
	{"com", 55},
	{"net", 12},
	{"org", 5},
	{"info", 2},
	{"biz", 1},
	{"de", 5},
	{"co.uk", 4},
	{"ru", 4},
	{"cn", 3},
	{"fr", 2.5},
	{"com.br", 2.5},
	{"nl", 1.5},
	{"it", 1.5},
	{"pl", 1},
}

// Cluster identifies the §4.2 site clusters.
type Cluster string

// Cluster values.
const (
	ClusterTop    Cluster = "top10k"    // Alexa top 10,000
	ClusterBottom Cluster = "bottom10k" // Alexa bottom 10,000
	ClusterOther  Cluster = "other"     // everything else in the dataset
)

// Site is one synthetic publisher website.
type Site struct {
	// Host is the site's www host name, e.g. "www.streamflicks.com".
	Host string
	// Domain is the registered domain, e.g. "streamflicks.com".
	Domain string
	// Rank is the 1-based Alexa-like popularity rank.
	Rank int
	// Category is the content category.
	Category Category
	// TLD is the site's public suffix.
	TLD string
	// AdSlots is how many advertisement iframes the site's page carries.
	// Popular sites monetize much more heavily — this is what makes the
	// top cluster serve ~76% of all observed ads.
	AdSlots int
	// PrimaryNetwork is the index of the ad network the publisher has a
	// contract with (an index into the adnet.Ecosystem's network list).
	PrimaryNetwork int
	// InAVFeed marks sites that the simulated antivirus-company URL feed
	// contains (sites with a history of badness).
	InAVFeed bool
}

// Cluster returns the §4.2 cluster the site belongs to, given the total
// population size.
func (s *Site) Cluster(totalSites int) Cluster {
	switch {
	case s.Rank <= 10_000:
		return ClusterTop
	case s.Rank > totalSites-10_000:
		return ClusterBottom
	default:
		return ClusterOther
	}
}

// Config parameterizes web generation.
type Config struct {
	// NumSites is the total ranked population (the paper's "one million"
	// scaled down; must be > 20,000 so top and bottom clusters are
	// disjoint).
	NumSites int
	// NumNetworks is how many ad networks exist for publisher affiliation.
	NumNetworks int
	// Seed drives all randomness.
	Seed uint64
	// AVFeedFraction is the fraction of sites also present in the AV feed.
	AVFeedFraction float64
	// ShadyNetworkFraction mirrors the ad market's share of weakly-filtered
	// networks (adnet.Config.ShadyFraction): AV-feed sites — pages "that in
	// the past appeared to have a malicious behavior" — skew toward
	// contracts with exactly those networks.
	ShadyNetworkFraction float64
}

// DefaultConfig mirrors the study's scaled-down defaults.
func DefaultConfig() Config {
	return Config{
		NumSites:             30_000,
		NumNetworks:          60,
		Seed:                 1,
		AVFeedFraction:       0.02,
		ShadyNetworkFraction: 0.4,
	}
}

// Web is the generated site population.
type Web struct {
	Sites []*Site // index i holds rank i+1
	cfg   Config
	// byHost indexes sites by host name.
	byHost map[string]*Site
}

// Generate builds the synthetic web.
func Generate(cfg Config) (*Web, error) {
	if cfg.NumSites <= 20_000 {
		return nil, fmt.Errorf("webgen: NumSites must exceed 20000 (top and bottom clusters must be disjoint), got %d", cfg.NumSites)
	}
	if cfg.NumNetworks <= 0 {
		return nil, fmt.Errorf("webgen: NumNetworks must be positive")
	}
	rng := stats.NewRNG(cfg.Seed).Fork("webgen")

	catW := make([]float64, len(categoryWeights))
	for i, cw := range categoryWeights {
		catW[i] = cw.Weight
	}
	catDist := stats.NewWeighted(catW)

	tldW := make([]float64, len(tldWeights))
	for i, tw := range tldWeights {
		tldW[i] = tw.Weight
	}
	tldDist := stats.NewWeighted(tldW)

	// Publishers pick ad networks with a popularity bias: big networks sign
	// most publishers. The exponent matches the ad market's share
	// distribution (adnet uses Zipf 1.3) so that publisher-side affiliation
	// and exchange-side volume agree.
	netDist := stats.NewZipf(cfg.NumNetworks, 1.3)

	w := &Web{
		Sites:  make([]*Site, cfg.NumSites),
		cfg:    cfg,
		byHost: make(map[string]*Site, cfg.NumSites),
	}
	usedDomains := make(map[string]bool, cfg.NumSites)
	for i := 0; i < cfg.NumSites; i++ {
		rank := i + 1
		cat := categoryWeights[catDist.Sample(rng)].Cat
		tld := tldWeights[tldDist.Sample(rng)].TLD

		var domain string
		for {
			domain = siteName(rng, cat) + "." + tld
			if !usedDomains[domain] {
				usedDomains[domain] = true
				break
			}
		}

		s := &Site{
			Host:           "www." + domain,
			Domain:         domain,
			Rank:           rank,
			Category:       cat,
			TLD:            tld,
			AdSlots:        adSlotsForRank(rng, rank, cfg.NumSites),
			PrimaryNetwork: netDist.Sample(rng),
			InAVFeed:       rng.Bool(cfg.AVFeedFraction),
		}
		// Sites with a malicious history (the AV feed) disproportionately
		// monetize through the market's weakly-filtered corner — which is
		// why the paper's AV-company feed was a productive crawl source.
		if s.InAVFeed && cfg.ShadyNetworkFraction > 0 && rng.Bool(0.35) {
			shadyStart := int(float64(cfg.NumNetworks) * (1 - cfg.ShadyNetworkFraction))
			if shadyStart < cfg.NumNetworks {
				s.PrimaryNetwork = shadyStart + rng.Intn(cfg.NumNetworks-shadyStart)
			}
		}
		w.Sites[i] = s
		w.byHost[s.Host] = s
	}
	return w, nil
}

// siteName derives a plausible domain label from the category.
var categoryNameStems = map[Category][]string{
	CatEntertainment: {"stream", "flix", "show", "celeb", "video", "tube"},
	CatNews:          {"news", "daily", "times", "press", "report", "wire"},
	CatAdult:         {"adult", "spicy", "late", "night", "velvet", "blush"},
	CatShopping:      {"shop", "deal", "store", "market", "cart", "bargain"},
	CatSports:        {"sport", "goal", "league", "score", "match", "arena"},
	CatTechnology:    {"tech", "gadget", "byte", "cloud", "dev", "code"},
	CatFinance:       {"bank", "invest", "coin", "trade", "fund", "money"},
	CatGames:         {"game", "play", "pixel", "quest", "arcade", "guild"},
	CatTravel:        {"travel", "trip", "fly", "tour", "hotel", "voyage"},
	CatEducation:     {"learn", "study", "academy", "campus", "tutor", "exam"},
	CatOther:         {"web", "info", "portal", "hub", "zone", "spot"},
}

func siteName(rng *stats.RNG, cat Category) string {
	stems := categoryNameStems[cat]
	return stats.Pick(rng, stems) + rng.RandWord(3, 7)
}

// adSlotsForRank models monetization intensity by popularity. Top sites run
// several slots; tail sites often run one or none. Calibrated so the top-10k
// cluster serves roughly 76% of all ad impressions in a mixed crawl.
func adSlotsForRank(rng *stats.RNG, rank, total int) int {
	switch {
	case rank <= 1_000:
		return 5 + rng.Intn(3) // 5-7
	case rank <= 10_000:
		return 3 + rng.Intn(3) // 3-5
	case rank > total-10_000:
		// Tail sites barely monetize: mean ~0.64 slots.
		n := 0
		if rng.Bool(0.54) {
			n++
		}
		if rng.Bool(0.10) {
			n++
		}
		return n
	default:
		return 1 + rng.Intn(3) // 1-3
	}
}

// ByHost returns the site with the given host, or nil.
func (w *Web) ByHost(host string) *Site { return w.byHost[host] }

// Config returns the configuration the web was generated with.
func (w *Web) Config() Config { return w.cfg }

// TopSlice returns the n most popular sites.
func (w *Web) TopSlice(n int) []*Site {
	if n > len(w.Sites) {
		n = len(w.Sites)
	}
	return w.Sites[:n]
}

// BottomSlice returns the n least popular sites.
func (w *Web) BottomSlice(n int) []*Site {
	if n > len(w.Sites) {
		n = len(w.Sites)
	}
	return w.Sites[len(w.Sites)-n:]
}

// RandomSlice returns n sites sampled without replacement from the middle
// of the ranking (excluding the top and bottom 10k used by the other
// feeds), in rank order.
func (w *Web) RandomSlice(n int, seed uint64) []*Site {
	picked := w.pickRandom(n, seed)
	var out []*Site
	for i, s := range w.Sites {
		if picked[i] {
			out = append(out, s)
		}
	}
	return out
}

// pickRandom marks, by index into Sites, the n sites RandomSlice samples.
func (w *Web) pickRandom(n int, seed uint64) []bool {
	rng := stats.NewRNG(seed).Fork("randomslice")
	picked := make([]bool, len(w.Sites))
	lo, hi := 10_000, len(w.Sites)-10_000
	if hi <= lo {
		return picked
	}
	pool := hi - lo
	if n > pool {
		n = pool
	}
	for got := 0; got < n; {
		idx := lo + rng.Intn(pool)
		if !picked[idx] {
			picked[idx] = true
			got++
		}
	}
	return picked
}

// AVFeed returns the sites present in the simulated antivirus-company feed.
func (w *Web) AVFeed() []*Site {
	var out []*Site
	for _, s := range w.Sites {
		if s.InAVFeed {
			out = append(out, s)
		}
	}
	return out
}

// CrawlSet assembles the paper's crawl target list: the top 10k, the bottom
// 10k, a random middle sample, and the AV feed, deduplicated, in rank order.
// Sites are stored in rank order with unique hosts, so one pass over the
// ranking yields the set.
func (w *Web) CrawlSet(randomN int) []*Site {
	picked := w.pickRandom(randomN, w.cfg.Seed)
	var out []*Site
	for i, s := range w.Sites {
		if i < 10_000 || i >= len(w.Sites)-10_000 || picked[i] || s.InAVFeed {
			out = append(out, s)
		}
	}
	return out
}

// Categories returns the fixed category list in calibration order.
func Categories() []Category {
	out := make([]Category, len(categoryWeights))
	for i, cw := range categoryWeights {
		out[i] = cw.Cat
	}
	return out
}

// TLDs returns the fixed TLD list in calibration order.
func TLDs() []string {
	out := make([]string, len(tldWeights))
	for i, tw := range tldWeights {
		out[i] = tw.TLD
	}
	return out
}
