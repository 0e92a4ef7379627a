package oracle

import (
	"context"
	"net/http"
	"sync"
	"testing"
	"time"

	"madave/internal/adnet"
	"madave/internal/adserver"
	"madave/internal/avscan"
	"madave/internal/blacklist"
	"madave/internal/corpus"
	"madave/internal/crawler"
	"madave/internal/easylist"
	"madave/internal/honeyclient"
	"madave/internal/memnet"
	"madave/internal/webgen"
)

var (
	onceFix sync.Once
	fixU    *memnet.Universe
	fixSrv  *adserver.Server
	fixOra  *Oracle
	fixCorp *corpus.Corpus
)

func fixture(t *testing.T) (*Oracle, *adserver.Server, *corpus.Corpus) {
	t.Helper()
	onceFix.Do(func() {
		web, err := webgen.Generate(webgen.DefaultConfig())
		if err != nil {
			panic(err)
		}
		eco, err := adnet.Generate(adnet.DefaultConfig())
		if err != nil {
			panic(err)
		}
		fixSrv = adserver.New(eco, web, 11)
		fixU = memnet.NewUniverse()
		fixSrv.Install(fixU)
		list, err := easylist.ParseString(fixSrv.BuildEasyList())
		if err != nil {
			panic(err)
		}
		fixOra = New(
			honeyclient.New(fixU, 11),
			blacklist.Build(eco, 11),
			avscan.New(11),
		)

		// Crawl a slice big enough to contain malicious impressions.
		cr := crawler.New(fixU, list, web, crawler.Config{Days: 1, Refreshes: 3, Parallelism: 8, Seed: 11})
		fixCorp, _ = cr.Run(web.TopSlice(150))
	})
	return fixOra, fixSrv, fixCorp
}

// groundTruthKind resolves an ad's true campaign kind via the server.
func groundTruthKind(t *testing.T, srv *adserver.Server, ad *corpus.Ad) adnet.Kind {
	t.Helper()
	d, ok := srv.Decide(ad.PubHost, ad.Impression)
	if !ok {
		t.Fatalf("no ground truth for %s", ad.Impression)
	}
	return d.Campaign.Kind
}

// expectedCategory maps ground-truth kinds to the Table-1 category the
// oracle should assign.
func expectedCategory(k adnet.Kind) Category {
	switch k {
	case adnet.KindBlacklisted:
		return CatBlacklists
	case adnet.KindLinkHijack:
		return CatSuspRedirect
	case adnet.KindCloaking:
		return CatHeuristics
	case adnet.KindDriveBy, adnet.KindDeceptive:
		return CatMaliciousExe
	case adnet.KindMaliciousFlash:
		return CatMaliciousSWF
	case adnet.KindModelOnly:
		return CatModel
	default:
		return CatClean
	}
}

func TestClassifyAgainstGroundTruth(t *testing.T) {
	ora, srv, corp := fixture(t)

	correct, wrong, total := 0, 0, 0
	seenMalKinds := map[adnet.Kind]bool{}
	for _, ad := range corp.All() {
		kind := groundTruthKind(t, srv, ad)
		want := expectedCategory(kind)
		// Classify a sample of benign ads (they dominate) but every
		// malicious one.
		if want == CatClean && total%25 != 0 {
			total++
			continue
		}
		total++
		inc := ora.Classify(ad)
		if inc.Category == want {
			correct++
			if want != CatClean {
				seenMalKinds[kind] = true
			}
		} else {
			wrong++
			t.Logf("misclassified kind=%s want=%s got=%s evidence=%q",
				kind, want, inc.Category, inc.Evidence)
		}
	}
	if wrong > correct/20 {
		t.Fatalf("oracle accuracy too low: %d correct, %d wrong", correct, wrong)
	}
	if len(seenMalKinds) < 2 {
		t.Fatalf("crawl sample exercised too few malicious kinds: %v (grow the fixture)", seenMalKinds)
	}
}

func TestClassifyCorpusAggregates(t *testing.T) {
	ora, srv, corp := fixture(t)
	res := ora.ClassifyCorpus(corp)
	if res.Scanned != corp.Len() {
		t.Fatalf("scanned %d of %d", res.Scanned, corp.Len())
	}
	// Compare with ground truth counts.
	truthMal := 0
	for _, ad := range corp.All() {
		if groundTruthKind(t, srv, ad).IsMalicious() {
			truthMal++
		}
	}
	got := res.MaliciousCount()
	if got < truthMal*9/10 || got > truthMal*11/10+1 {
		t.Fatalf("oracle found %d incidents, ground truth %d", got, truthMal)
	}
	if len(res.Incidents) != got {
		t.Fatalf("incident list %d != count %d", len(res.Incidents), got)
	}
	sum := 0
	for _, c := range res.ByCategory {
		sum += c
	}
	if sum != got {
		t.Fatalf("category sum %d != total %d", sum, got)
	}
	if res.MaliciousRate() <= 0 || res.MaliciousRate() > 0.1 {
		t.Fatalf("malicious rate = %f", res.MaliciousRate())
	}
}

func TestIncidentFields(t *testing.T) {
	ora, _, corp := fixture(t)
	res := ora.ClassifyCorpus(corp)
	if len(res.Incidents) == 0 {
		t.Skip("no incidents in this sample")
	}
	for _, inc := range res.Incidents {
		if inc.AdHash == "" || inc.Evidence == "" || inc.Report == nil {
			t.Fatalf("incident incomplete: %+v", inc)
		}
		if !inc.Malicious() {
			t.Fatal("clean incident in list")
		}
	}
}

func TestCategoriesOrder(t *testing.T) {
	cats := Categories()
	if len(cats) != 6 || cats[0] != CatBlacklists || cats[5] != CatModel {
		t.Fatalf("categories = %v", cats)
	}
}

func TestCleanVerdict(t *testing.T) {
	ora, srv, corp := fixture(t)
	for _, ad := range corp.All() {
		if groundTruthKind(t, srv, ad) == adnet.KindBenign {
			inc := ora.Classify(ad)
			if inc.Malicious() {
				t.Fatalf("benign ad classified %s (%s)", inc.Category, inc.Evidence)
			}
			return
		}
	}
	t.Fatal("no benign ad in corpus")
}

func TestEmptyCorpus(t *testing.T) {
	ora, _, _ := fixture(t)
	res := ora.ClassifyCorpus(corpus.New())
	if res.Scanned != 0 || res.MaliciousCount() != 0 || res.MaliciousRate() != 0 {
		t.Fatalf("empty corpus result: %+v", res)
	}
}

func TestClassifySnapshotAgreesWithLive(t *testing.T) {
	ora, srv, corp := fixture(t)
	checked := 0
	disagreements := 0
	for _, ad := range corp.All() {
		kind := groundTruthKind(t, srv, ad)
		// Snapshot analysis only sees post-render HTML; kinds whose
		// behaviour happens during the serve chain still reproduce because
		// the snapshot carries the creative's script.
		if kind == adnet.KindBenign && checked%40 != 0 {
			checked++
			continue
		}
		checked++
		live := ora.Classify(ad)
		snap := ora.ClassifySnapshot(ad)
		if live.Malicious() != snap.Malicious() {
			disagreements++
			t.Logf("disagreement kind=%s live=%s snap=%s", kind, live.Category, snap.Category)
		}
	}
	if checked == 0 {
		t.Fatal("nothing checked")
	}
	// Cloaking ads may render differently live vs snapshot (the snapshot
	// was taken by the user-profile crawler, which saw the benign side);
	// everything else should agree.
	if disagreements > checked/10 {
		t.Fatalf("%d/%d live-vs-snapshot disagreements", disagreements, checked)
	}
}

// TestClassifyEveryKindViaSnapshot drives every classifyReport branch with
// a synthetic snapshot per campaign kind — independent of which kinds the
// crawl sample happened to serve.
func TestClassifyEveryKindViaSnapshot(t *testing.T) {
	ora, srv, _ := fixture(t)
	wantByKind := map[adnet.Kind]Category{
		adnet.KindBenign:         CatClean,
		adnet.KindBlacklisted:    CatBlacklists,
		adnet.KindLinkHijack:     CatSuspRedirect,
		adnet.KindCloaking:       CatHeuristics,
		adnet.KindDriveBy:        CatMaliciousExe,
		adnet.KindDeceptive:      CatMaliciousExe,
		adnet.KindMaliciousFlash: CatMaliciousSWF,
		adnet.KindModelOnly:      CatModel,
	}
	covered := map[adnet.Kind]bool{}
	for _, c := range srv.Eco.Campaigns {
		want, ok := wantByKind[c.Kind]
		if !ok || covered[c.Kind] {
			continue
		}
		covered[c.Kind] = true
		imp := "cafe0000cafe0000"
		ad := &corpus.Ad{
			HTML:     adserver.CreativeHTML(c, imp, 0),
			FinalURL: "http://" + c.CreativeHost + "/creative?imp=" + imp,
			Hosts:    []string{c.CreativeHost},
		}
		ad.Hash = corpus.HashHTML(ad.HTML)
		inc := ora.ClassifySnapshot(ad)
		if inc.Category != want {
			t.Errorf("kind %s: classified %s (want %s), evidence %q",
				c.Kind, inc.Category, want, inc.Evidence)
		}
		if want != CatClean && inc.Evidence == "" {
			t.Errorf("kind %s: missing evidence", c.Kind)
		}
	}
	if len(covered) != len(wantByKind) {
		t.Fatalf("covered %d/%d kinds: %v", len(covered), len(wantByKind), covered)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// TestPoolCancelUnblocksSubmit wedges a one-worker pool: its only worker is
// stuck in a fetch and its queue is full, so Submit blocks. Cancelling must
// release the blocked producer, and the verdict the cancel cut short must be
// dropped rather than counted as scanned or degraded.
func TestPoolCancelUnblocksSubmit(t *testing.T) {
	ora, _, corp := fixture(t)
	started := make(chan struct{}, 1)
	hc := honeyclient.New(fixU, 11)
	hc.Transport = func() http.RoundTripper {
		return roundTripFunc(func(req *http.Request) (*http.Response, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			<-req.Context().Done()
			return nil, req.Context().Err()
		})
	}
	wedged := &Oracle{Honey: hc, Lists: ora.Lists, Scanner: ora.Scanner, Parallelism: 1}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := wedged.NewPool(ctx)
	ads := corp.All()[:3]
	if !p.Submit(ads[0]) {
		t.Fatal("Submit refused an ad before any cancel")
	}
	<-started // the worker is stuck classifying ads[0]
	if !p.Submit(ads[1]) {
		t.Fatal("Submit refused an ad before any cancel")
	}
	// The queue is full, so this Submit can only return false: it either
	// blocks until the cancel releases it or starts after the cancel.
	done := make(chan bool)
	go func() { done <- p.Submit(ads[2]) }()
	cancel()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Submit queued an ad into a full queue")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel left Submit blocked on a full queue")
	}
	if p.Submit(ads[2]) {
		t.Fatal("Submit queued an ad after the cancel")
	}
	res := p.Finish(ads)
	if res.Scanned != 0 || res.Degraded != 0 || len(res.Incidents) != 0 {
		t.Fatalf("cut-short verdicts were counted: %+v", res)
	}
}
