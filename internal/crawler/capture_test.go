package crawler

import (
	"context"
	"net/http"
	"testing"

	"madave/internal/browser"
	"madave/internal/corpus"
	"madave/internal/easylist"
	"madave/internal/memnet"
	"madave/internal/resilient"
	"madave/internal/telemetry"
)

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// TestWorkerCaptureHoldsOneVisit drives one batch worker's browser visit by
// visit. Without KeepTraffic its capture must never hold more than the
// current visit's transactions, and must be empty once the visit ends. With
// KeepTraffic it must keep the whole crawl.
func TestWorkerCaptureHoldsOneVisit(t *testing.T) {
	u, web, list := fixture(t)
	for _, keep := range []bool{false, true} {
		c := New(u, list, web, Config{Days: 1, Refreshes: 2, Parallelism: 1, Seed: 23})
		c.KeepTraffic = keep

		// The base transport sees each fetch before the capture records
		// it, so at the k-th fetch of a visit a visit-scoped capture holds
		// at most the k finished ones.
		var b *browser.Browser
		var trips, total, worst int
		base := &memnet.Transport{U: u}
		c.Transport = func() http.RoundTripper {
			return roundTripFunc(func(req *http.Request) (*http.Response, error) {
				if over := b.Capture.Len() - trips; over > worst {
					worst = over
				}
				trips++
				return base.RoundTrip(req)
			})
		}
		b = c.newWorkerBrowser(0, &resilient.Counters{})
		m := newCrawlMetrics(telemetry.New(23))
		corp, mctx := corpus.New(), easylist.NewRequestCtx()

		for _, v := range c.Visits(web.TopSlice(8)) {
			trips = 0
			c.crawlPage(context.Background(), b, mctx, v, corp, m)
			if trips == 0 {
				t.Fatalf("visit %s made no requests", v.Key())
			}
			total += trips
			want := 0
			if keep {
				want = total
			}
			if got := b.Capture.Len(); got != want {
				t.Fatalf("KeepTraffic=%v: capture holds %d transactions after visit %s, want %d", keep, got, v.Key(), want)
			}
		}
		if !keep && worst > 0 {
			t.Fatalf("worker capture held %d transactions of earlier visits", worst)
		}
		if keep && worst == 0 {
			t.Fatal("KeepTraffic capture never held earlier visits' transactions")
		}
	}
}

// tracedCrawlTransactions is the size of the KeepTraffic trace below at
// seed 23, as measured before worker captures were scoped to the visit.
const tracedCrawlTransactions = 688

// TestKeepTrafficTraceUnchanged pins the traced crawl: with KeepTraffic on,
// scoping worker captures to the visit must change neither the merged
// trace's size nor the contiguous Seq numbering of each worker's log.
func TestKeepTrafficTraceUnchanged(t *testing.T) {
	u, web, list := fixture(t)
	c := New(u, list, web, Config{Days: 1, Refreshes: 2, Parallelism: 2, Seed: 23})
	c.KeepTraffic = true
	c.Run(web.TopSlice(20))

	trace := c.Traffic()
	if trace.Len() != tracedCrawlTransactions {
		t.Fatalf("trace holds %d transactions, want %d", trace.Len(), tracedCrawlTransactions)
	}
	for i, tx := range trace.All() {
		if tx.Seq != i {
			t.Fatalf("merged trace: transaction %d has Seq %d", i, tx.Seq)
		}
	}
	if len(c.traffic) != c.Config.Parallelism {
		t.Fatalf("%d worker captures kept, want %d", len(c.traffic), c.Config.Parallelism)
	}
	for w, cap := range c.traffic {
		for i, tx := range cap.All() {
			if tx.Seq != i {
				t.Fatalf("worker %d: transaction %d has Seq %d", w, i, tx.Seq)
			}
		}
	}
}
