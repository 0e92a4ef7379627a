// Package crawler orchestrates the data-collection phase of the study
// (§3.1): it visits every target site once per "day", refreshes each page
// five times, renders pages in the emulated browser, identifies
// advertisement iframes with EasyList, and snapshots each rendered ad into
// the corpus.
//
// Visits fan out over a worker pool; each worker owns its own browser,
// HTTP capture, and resilience state (retry transport + per-host circuit
// breakers). Work is statically striped across workers — worker w handles
// every Parallelism-th visit — so each worker sees a deterministic request
// sequence and crawls are byte-for-byte reproducible per seed even under
// injected faults.
package crawler

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"time"

	"madave/internal/browser"
	"madave/internal/corpus"
	"madave/internal/easylist"
	"madave/internal/memnet"
	"madave/internal/minijs"
	"madave/internal/netcap"
	"madave/internal/resilient"
	"madave/internal/stats"
	"madave/internal/telemetry"
	"madave/internal/urlx"
	"madave/internal/webgen"
)

// DefaultVisitTimeout bounds one page visit (document, subresources,
// scripts, child frames) when Config.VisitTimeout is zero.
const DefaultVisitTimeout = 30 * time.Second

// Config parameterizes a crawl.
type Config struct {
	// Days is how many daily visits to make (the paper crawled for three
	// months; the default scales that down).
	Days int
	// Refreshes is how many times each page is reloaded per visit (the
	// paper used five).
	Refreshes int
	// Parallelism is the worker count (0 = 4).
	Parallelism int
	// Seed drives per-worker browser randomness and retry jitter.
	Seed uint64
	// VisitTimeout is the per-visit deadline (0 = DefaultVisitTimeout,
	// negative = none). A visit that exceeds it yields a partial page; the
	// crawler harvests whatever frames survived.
	VisitTimeout time.Duration
	// Retry configures the per-request resilience layer. Zero fields take
	// resilient defaults; Seed is always overridden with Config.Seed so one
	// knob reproduces a whole crawl.
	Retry resilient.Policy
	// BreakerThreshold and BreakerCooldown parameterize each worker's
	// per-host circuit breakers (0 = resilient defaults: 5 consecutive
	// failures open a host, 10 requests shed per open period).
	BreakerThreshold int
	BreakerCooldown  int
}

// DefaultConfig mirrors the paper's five refreshes with a scaled-down
// duration.
func DefaultConfig() Config {
	return Config{Days: 2, Refreshes: 5, Parallelism: 4, Seed: 1}
}

// Stats aggregates crawl-wide observations. Every field is a sum of
// per-visit observations that depend only on (seed, URL, attempt), so two
// same-seed crawls produce identical Stats regardless of scheduling.
//
// Stats is a view: the crawler accumulates these counts in a telemetry
// registry (the caller's via Crawler.Telemetry, or a private one) and
// materializes the struct from a registry snapshot when the run ends, so
// the struct and any exported metrics can never disagree.
type Stats struct {
	PagesVisited int64
	// PageErrors counts top-level visits that failed, split by cause below
	// (PageErrors = NXDomainErrors + TimeoutErrors + HTTPErrors +
	// OtherErrors).
	PageErrors     int64
	NXDomainErrors int64 // the publisher host did not resolve
	TimeoutErrors  int64 // the visit deadline (or cancellation) ended the load
	HTTPErrors     int64 // the page came back with a 4xx/5xx status
	OtherErrors    int64 // resets, redirect loops, open breakers, the rest
	FramesSeen     int64 // all iframes on crawled pages
	AdFrames       int64 // iframes EasyList classified as advertisements
	NonAdFrames    int64
	SandboxedAds   int64 // ad iframes carrying the sandbox attribute (§4.4)
	SnapshotsTaken int64
	Duplicates     int64
	// DegradedPages counts visits that reported errors yet still yielded
	// at least one frame — partial pages the crawler harvested anyway.
	DegradedPages int64

	// Resilience-layer totals for the whole crawl (see resilient.Counters).
	Retries              int64
	Timeouts             int64
	Truncations          int64
	CircuitOpens         int64
	CircuitShortCircuits int64
}

// Crawler runs crawls against a universe.
type Crawler struct {
	Universe *memnet.Universe
	List     *easylist.List
	Web      *webgen.Web
	Config   Config
	// Transport, when non-nil, supplies the HTTP transport each worker's
	// browser uses instead of the default in-memory one — e.g. a TCP
	// loopback transport from memnet.Server, so the whole crawl runs over
	// real sockets.
	Transport func() http.RoundTripper
	// KeepTraffic retains the full HTTP transaction log of the crawl
	// (§3.1: "we captured all the HTTP traffic during crawling for further
	// investigation"). After Run, the merged trace is available via
	// Traffic(). Off by default: a large crawl's trace is big.
	KeepTraffic bool
	// Telemetry, when non-nil, receives the crawl's metrics (counters,
	// stage latency histograms) and — if its tracer is enabled — the span
	// tree of every visit. When nil the crawler uses a private registry, so
	// Stats accounting is identical either way and telemetry can never
	// steer the crawl.
	Telemetry *telemetry.Set
	// CodeCache, when set, shares parsed+compiled scripts with every
	// browser the crawler builds. A study passes the cache its honeyclient
	// uses, so the honeyclient's re-execution of an ad finds the scripts
	// the crawl already compiled. Pages render identically with or without
	// it: the cache serves strict loads the strict parser's exact outcome.
	CodeCache *minijs.CodeCache

	mu       sync.Mutex
	traffic  []*netcap.Capture
	smetrics *crawlMetrics // lazy, CrawlOne's shared observational handle
}

// Traffic merges the per-worker captures of the last Run into one log.
// It returns nil unless KeepTraffic was set.
func (c *Crawler) Traffic() *netcap.Capture {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.traffic) == 0 {
		return nil
	}
	merged := netcap.New(nil)
	for _, cap := range c.traffic {
		for _, tx := range cap.All() {
			merged.Record(tx)
		}
	}
	return merged
}

// New returns a Crawler.
func New(u *memnet.Universe, list *easylist.List, web *webgen.Web, cfg Config) *Crawler {
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = 4
	}
	if cfg.Days <= 0 {
		cfg.Days = 1
	}
	if cfg.Refreshes <= 0 {
		cfg.Refreshes = 1
	}
	return &Crawler{Universe: u, List: list, Web: web, Config: cfg}
}

// crawlMetrics holds the registry instruments the crawl hot path bumps.
// Handles are fetched once per run; each event is one atomic add.
type crawlMetrics struct {
	tel        *telemetry.Set
	pages      *telemetry.Counter
	pageErrors *telemetry.Counter
	errNX      *telemetry.Counter
	errTimeout *telemetry.Counter
	errHTTP    *telemetry.Counter
	errOther   *telemetry.Counter
	adFrames   *telemetry.Counter
	nonAd      *telemetry.Counter
	sandboxed  *telemetry.Counter
	snapshots  *telemetry.Counter
	degraded   *telemetry.Counter
}

func newCrawlMetrics(tel *telemetry.Set) *crawlMetrics {
	cause := func(v string) telemetry.Label { return telemetry.L("cause", v) }
	kind := func(v string) telemetry.Label { return telemetry.L("kind", v) }
	return &crawlMetrics{
		tel:        tel,
		pages:      tel.Counter("crawl_pages_visited_total"),
		pageErrors: tel.Counter("crawl_page_errors_total"),
		errNX:      tel.Counter("crawl_page_error_causes_total", cause("nxdomain")),
		errTimeout: tel.Counter("crawl_page_error_causes_total", cause("timeout")),
		errHTTP:    tel.Counter("crawl_page_error_causes_total", cause("http")),
		errOther:   tel.Counter("crawl_page_error_causes_total", cause("other")),
		adFrames:   tel.Counter("crawl_frames_total", kind("ad")),
		nonAd:      tel.Counter("crawl_frames_total", kind("nonad")),
		sandboxed:  tel.Counter("crawl_sandboxed_ads_total"),
		snapshots:  tel.Counter("crawl_snapshots_total"),
		degraded:   tel.Counter("crawl_degraded_pages_total"),
	}
}

// stats materializes the Stats view from the registry counters plus the
// resilience-layer snapshot.
func (m *crawlMetrics) stats(res resilient.Counters) *Stats {
	return &Stats{
		PagesVisited:         m.pages.Value(),
		PageErrors:           m.pageErrors.Value(),
		NXDomainErrors:       m.errNX.Value(),
		TimeoutErrors:        m.errTimeout.Value(),
		HTTPErrors:           m.errHTTP.Value(),
		OtherErrors:          m.errOther.Value(),
		FramesSeen:           m.adFrames.Value() + m.nonAd.Value(),
		AdFrames:             m.adFrames.Value(),
		NonAdFrames:          m.nonAd.Value(),
		SandboxedAds:         m.sandboxed.Value(),
		SnapshotsTaken:       m.snapshots.Value(),
		DegradedPages:        m.degraded.Value(),
		Retries:              res.Retries,
		Timeouts:             res.Timeouts,
		Truncations:          res.Truncations,
		CircuitOpens:         res.BreakerOpens,
		CircuitShortCircuits: res.BreakerShortCircuits,
	}
}

// Run crawls the given sites and returns the deduplicated ad corpus plus
// crawl statistics.
func (c *Crawler) Run(sites []*webgen.Site) (*corpus.Corpus, *Stats) {
	return c.RunContext(context.Background(), sites)
}

// RunContext is Run under a caller-supplied context: cancelling it stops
// the crawl after the in-flight visits finish. Visits are striped
// statically — worker w handles visits[i] where i%Parallelism == w — so
// each worker's request sequence (and hence its browser RNG, cookie jar,
// and circuit-breaker state) is identical run to run.
func (c *Crawler) RunContext(ctx context.Context, sites []*webgen.Site) (*corpus.Corpus, *Stats) {
	if ctx == nil {
		ctx = context.Background()
	}
	corp := corpus.New()
	tel := c.Telemetry
	if tel == nil {
		// A private registry keeps the accounting path identical whether or
		// not the caller wants telemetry out.
		tel = telemetry.New(c.Config.Seed)
	}
	m := newCrawlMetrics(tel)
	c.mu.Lock()
	c.traffic = nil
	c.mu.Unlock()

	visits := c.Visits(sites)
	tel.Gauge("crawl_visits_planned").Set(int64(len(visits)))
	tel.Gauge("crawl_workers").Set(int64(c.Config.Parallelism))

	counters := &resilient.Counters{}
	var wg sync.WaitGroup
	for w := 0; w < c.Config.Parallelism; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			b := c.newWorkerBrowser(worker, counters)
			// Each worker owns a match context: the EasyList engine reuses
			// its per-request scratch across the worker's whole crawl.
			mctx := easylist.NewRequestCtx()
			for i := worker; i < len(visits); i += c.Config.Parallelism {
				if ctx.Err() != nil {
					return
				}
				c.crawlPage(ctx, b, mctx, visits[i], corp, m)
			}
		}(w)
	}
	wg.Wait()
	st := m.stats(counters.Snapshot())
	st.Duplicates = int64(corp.Duplicates())
	tel.Counter("crawl_duplicates_total").Add(st.Duplicates)
	return corp, st
}

// newWorkerBrowser builds a per-worker browser with its own capture and
// resilience stack. The crawler browses like a real user's Firefox (the
// paper drove the real browser with Selenium). The transport layers, inner
// to outer: base (memnet or custom, possibly chaos-wrapped) -> resilient
// retries/breakers -> capture — so the traffic log sees one transaction
// per logical fetch, with retries invisible to it.
func (c *Crawler) newWorkerBrowser(worker int, counters *resilient.Counters) *browser.Browser {
	var rt http.RoundTripper = &memnet.Transport{U: c.Universe, Tel: c.Telemetry}
	if c.Transport != nil {
		rt = c.Transport()
	}
	pol := c.Config.Retry
	pol.Seed = c.Config.Seed
	res := resilient.New(rt, pol, counters)
	res.Tel = c.Telemetry
	// A breaker set per worker: striped visits give each worker a
	// deterministic request sequence, so breaker trips reproduce exactly.
	res.Breakers = resilient.NewBreakerSet(c.Config.BreakerThreshold, c.Config.BreakerCooldown)
	cap := netcap.New(res)
	if c.KeepTraffic {
		c.mu.Lock()
		c.traffic = append(c.traffic, cap)
		c.mu.Unlock()
	}
	client := &http.Client{
		Transport: cap,
		CheckRedirect: func(req *http.Request, via []*http.Request) error {
			return http.ErrUseLastResponse
		},
	}
	b := browser.New(client, browser.UserProfile())
	b.Capture = cap
	b.Tel = c.Telemetry
	b.RNG = stats.NewRNG(c.Config.Seed).Fork(fmt.Sprintf("crawler-worker-%d", worker))
	b.CodeCache = c.CodeCache
	return b
}

// crawlPage loads one page visit and folds the observation into the crawl
// metrics and corpus. The observation itself (visitOnce) is shared with the
// streaming service's hermetic CrawlOne, so both paths classify and harvest
// identically.
func (c *Crawler) crawlPage(ctx context.Context, b *browser.Browser, mctx *easylist.RequestCtx, v Visit, corp *corpus.Corpus, m *crawlMetrics) {
	out := c.visitOnce(ctx, m.tel, b, mctx, v)
	m.record(out)
	for _, ha := range out.Ads {
		corp.Add(ha.Ad)
	}
}

// record tallies one visit outcome into the crawl counters.
func (m *crawlMetrics) record(out *VisitOutcome) {
	m.pages.Inc()
	if out.PageError {
		m.pageErrors.Inc()
		switch out.ErrCause {
		case "nxdomain":
			m.errNX.Inc()
		case "timeout":
			m.errTimeout.Inc()
		case "http":
			m.errHTTP.Inc()
		default:
			m.errOther.Inc()
		}
	}
	if out.Degraded {
		m.degraded.Inc()
	}
	m.nonAd.Add(int64(out.NonAd))
	for _, ha := range out.Ads {
		m.adFrames.Inc()
		if ha.Sandboxed {
			m.sandboxed.Inc()
		}
		m.snapshots.Inc()
	}
}

// visitTimeout resolves Config.VisitTimeout (0 = default, negative = none).
func (c *Crawler) visitTimeout() time.Duration {
	switch {
	case c.Config.VisitTimeout < 0:
		return 0
	case c.Config.VisitTimeout == 0:
		return DefaultVisitTimeout
	}
	return c.Config.VisitTimeout
}

// isAdFrame applies EasyList the way the paper did: the iframe src is
// matched as a subdocument request from the publisher's page.
func (c *Crawler) isAdFrame(ctx *easylist.RequestCtx, frameURL, docHost string) bool {
	blocked, _ := c.List.MatchCtx(ctx, easylist.Request{
		URL:     frameURL,
		Type:    easylist.TypeSubdocument,
		DocHost: docHost,
	})
	return blocked
}

// snapshot converts a rendered ad frame into a corpus record.
func (c *Crawler) snapshot(frame *browser.Page, v Visit) *corpus.Ad {
	ad := &corpus.Ad{
		HTML:       frame.HTML(),
		FrameURL:   frame.URL,
		FinalURL:   frame.FinalURL,
		Impression: impressionFromURL(frame.URL),
		PubHost:    v.Site.Host,
		PubRank:    v.Site.Rank,
		Category:   string(v.Site.Category),
		TLD:        v.Site.TLD,
		Day:        v.Day,
		Refresh:    v.Refresh,
	}
	// The corpus key is computed here, not lazily at corpus.Add time: the
	// streaming service deduplicates and journals by hash without ever
	// building a corpus.
	ad.Hash = corpus.HashHTML(ad.HTML)
	// The arbitration chain is the redirect chain's hosts, repeats
	// preserved (§4.3: the same networks buy and sell the same slot).
	for _, hop := range frame.RedirectHops {
		if h := urlx.Host(hop); h != "" {
			ad.Chain = append(ad.Chain, h)
		}
	}
	// Deduplicate the contacted-hosts list but keep order.
	seen := map[string]bool{}
	addHost := func(raw string) {
		h := urlx.Host(raw)
		if h != "" && !seen[h] {
			seen[h] = true
			ad.Hosts = append(ad.Hosts, h)
		}
	}
	for _, hop := range frame.RedirectHops {
		addHost(hop)
	}
	for _, r := range frame.AllResources() {
		addHost(r.URL)
	}
	for _, d := range frame.AllDownloads() {
		addHost(d.URL)
	}
	for _, n := range frame.AllNavigations() {
		addHost(n.Target)
	}
	return ad
}

// impressionFromURL extracts the imp query parameter from a serve URL.
func impressionFromURL(raw string) string {
	u, err := url.Parse(raw)
	if err != nil {
		return ""
	}
	return u.Query().Get("imp")
}
