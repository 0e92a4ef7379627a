// Package oracle combines the detection components of §3.2 —
// the honeyclient (Wepawet), the 49-list blacklist tracker, and the
// 51-engine AV scanner (VirusTotal) — into the classifier that turns an
// advertisement into a Table-1 incident (or a clean verdict). A fourth,
// structural component rides alongside when the honeyclient's flow-graph
// oracle is enabled: its verdicts land in separate Result fields and never
// perturb the Table-1 attribution, so graph-on and graph-off runs produce
// byte-identical base statistics.
//
// An advertisement can trigger several detectors at once; like the paper's
// Table 1, each ad is attributed to exactly one category, in the table's
// order of precedence.
package oracle

import (
	"context"
	"sync"

	"madave/internal/avscan"
	"madave/internal/blacklist"
	"madave/internal/corpus"
	"madave/internal/flowgraph"
	"madave/internal/honeyclient"
	"madave/internal/telemetry"
)

// Category is a Table-1 classification bucket.
type Category string

// Categories, in Table 1 order (which is also attribution precedence).
const (
	CatBlacklists   Category = "blacklists"
	CatSuspRedirect Category = "suspicious-redirections"
	CatHeuristics   Category = "heuristics"
	CatMaliciousExe Category = "malicious-executables"
	CatMaliciousSWF Category = "malicious-flash"
	CatModel        Category = "model-detection"
	CatClean        Category = "clean"
)

// Categories returns the malicious categories in Table 1 order.
func Categories() []Category {
	return []Category{
		CatBlacklists, CatSuspRedirect, CatHeuristics,
		CatMaliciousExe, CatMaliciousSWF, CatModel,
	}
}

// Incident is the oracle's verdict for one advertisement.
type Incident struct {
	AdHash   string
	Category Category
	// Evidence is a short human-readable justification.
	Evidence string
	// Report is the honeyclient analysis backing the verdict.
	Report *honeyclient.Report
}

// Malicious reports whether the verdict is an incident.
func (i *Incident) Malicious() bool { return i.Category != CatClean }

// GraphMalicious reports whether the flow-graph classifier flagged the ad.
// Always false when the graph oracle is disabled; never affects Category.
func (i *Incident) GraphMalicious() bool {
	return i.Report != nil && i.Report.Graph != nil && i.Report.Graph.Verdict.Malicious
}

// Oracle is the combined classifier.
type Oracle struct {
	Honey   *honeyclient.Honeyclient
	Lists   *blacklist.Tracker
	Scanner *avscan.Scanner
	// Parallelism is the worker count of a classification Pool (the batch
	// study's and ClassifyCorpus's).
	Parallelism int
	// TemporalBlacklists makes the blacklist check honor per-listing
	// discovery days (blacklist.BuildTemporal): an ad observed on crawl
	// day D is only matched against listings the providers already knew by
	// day D. Off by default (the paper's steady-state, post-crawl oracle).
	TemporalBlacklists bool
	// Tel, when non-nil, records an oracle.classify span per advertisement
	// (rooting the analysis-side span tree). Verdicts never depend on it.
	Tel *telemetry.Set
}

// New assembles an oracle.
func New(h *honeyclient.Honeyclient, t *blacklist.Tracker, s *avscan.Scanner) *Oracle {
	return &Oracle{Honey: h, Lists: t, Scanner: s, Parallelism: 4}
}

// Classify analyzes one corpus advertisement: the honeyclient re-executes
// it (live against the universe, like Wepawet re-requesting the ad), every
// observed domain is checked against the blacklists, and every downloaded
// file is scanned.
func (o *Oracle) Classify(ad *corpus.Ad) Incident {
	return o.ClassifyContext(context.Background(), ad)
}

// ClassifyContext is Classify under a caller-supplied context: the
// honeyclient's instrumented execution is bounded by it, and a partial
// execution still classifies on the surviving evidence (Report.Degraded
// records that the verdict is partial).
func (o *Oracle) ClassifyContext(ctx context.Context, ad *corpus.Ad) Incident {
	var sp *telemetry.Span
	ctx, sp = o.Tel.StartSpan(ctx, telemetry.StageOracle, ad.Hash)
	defer sp.End()
	rep := o.Honey.AnalyzeAdContext(ctx, ad.FrameURL, ad.Day)
	return o.classifyReport(ad, rep)
}

// ClassifySnapshot classifies from the corpus's stored HTML snapshot
// instead of re-requesting the ad — the paper's fallback when an ad chain
// had already rotated or died by analysis time. Subresources the snapshot
// references are still fetched live where possible.
func (o *Oracle) ClassifySnapshot(ad *corpus.Ad) Incident {
	ctx, sp := o.Tel.StartSpan(context.Background(), telemetry.StageOracle, ad.Hash)
	defer sp.End()
	rep := o.Honey.AnalyzeHTMLAdContext(ctx, ad.HTML, ad.FinalURL, ad.Day)
	return o.classifyReport(ad, rep)
}

// classifyReport applies the Table-1 precedence over the gathered evidence.
func (o *Oracle) classifyReport(ad *corpus.Ad, rep *honeyclient.Report) Incident {
	inc := Incident{AdHash: ad.Hash, Category: CatClean, Report: rep}

	// 1. Blacklists: any domain that served (part of) the advertisement on
	// more than five lists. Both the crawl-time hosts and the
	// honeyclient-time hosts count — cloaking can hide hosts from one view.
	hosts := make([]string, 0, len(ad.Hosts)+len(rep.Hosts))
	hosts = append(hosts, ad.Hosts...)
	hosts = append(hosts, rep.Hosts...)
	var offender string
	var listed bool
	if o.TemporalBlacklists {
		offender, listed = o.Lists.AnyMaliciousAsOf(hosts, ad.Day)
	} else {
		offender, listed = o.Lists.AnyMalicious(hosts)
	}
	if listed {
		inc.Category = CatBlacklists
		inc.Evidence = "domain " + offender + " on >5 blacklists"
		return inc
	}

	// 2. Suspicious redirections: the ad forced the top-level page away
	// (link hijacking, §2.3).
	if rep.Hijack {
		inc.Category = CatSuspRedirect
		inc.Evidence = "top.location rewrite observed"
		return inc
	}

	// 3. Heuristics: cloaking indicators — redirects to NX domains or to
	// benign search engines.
	if rep.NXRedirect || rep.BenignRedirect {
		inc.Category = CatHeuristics
		if rep.NXRedirect {
			inc.Evidence = "redirect to nonexistent domain"
		} else {
			inc.Evidence = "redirect to benign search engine"
		}
		return inc
	}

	// 4 & 5. Payloads: scan every download; executables before Flash.
	var exeHit, swfHit bool
	var exeSig, swfSig string
	for _, d := range rep.Downloads {
		r := o.Scanner.Scan(d.Body)
		if !r.Malicious(o.Scanner.Threshold) {
			continue
		}
		switch r.Kind {
		case avscan.KindFlash:
			if !swfHit {
				swfHit = true
				swfSig = firstSignature(r)
			}
		default:
			if !exeHit {
				exeHit = true
				exeSig = firstSignature(r)
			}
		}
	}
	if exeHit {
		inc.Category = CatMaliciousExe
		inc.Evidence = "download flagged: " + exeSig
		return inc
	}
	if swfHit {
		inc.Category = CatMaliciousSWF
		inc.Evidence = "flash flagged: " + swfSig
		return inc
	}

	// 6. Behavioural model.
	if rep.ModelHit {
		inc.Category = CatModel
		inc.Evidence = "behavioural model score over threshold"
		return inc
	}
	return inc
}

func firstSignature(r *avscan.Report) string {
	for _, v := range r.Verdicts {
		if v.Malicious && v.Signature != "" {
			return v.Signature
		}
	}
	return "unknown"
}

// GraphFinding is one flow-graph verdict — the fourth oracle component's
// per-ad output, kept beside (never inside) the Table-1 incident.
type GraphFinding struct {
	AdHash string
	// Signals are the structural signals that fired (flowgraph.Verdict).
	Signals []string
	// Features is the ad's structural feature vector.
	Features flowgraph.Features
}

// Result aggregates a corpus classification.
type Result struct {
	Incidents []Incident
	// ByCategory counts incidents per category.
	ByCategory map[Category]int
	// Scanned is the number of advertisements classified.
	Scanned int
	// Degraded counts classifications that ran on partial evidence (the
	// honeyclient's execution hit faults or deadlines but still reported).
	Degraded int

	// GraphScanned counts ads that carried a flow-graph summary (0 when the
	// graph oracle is off). GraphFindings lists the ads the graph classifier
	// flagged, in corpus order. Both are additive: base fields above are
	// byte-identical with the graph oracle on or off.
	GraphScanned  int
	GraphFindings []GraphFinding
}

// MaliciousCount returns the total number of incidents.
func (r *Result) MaliciousCount() int {
	n := 0
	for _, c := range r.ByCategory {
		n += c
	}
	return n
}

// MaliciousRate returns incidents / scanned.
func (r *Result) MaliciousRate() float64 {
	if r.Scanned == 0 {
		return 0
	}
	return float64(r.MaliciousCount()) / float64(r.Scanned)
}

// ClassifyCorpus classifies every ad in the corpus with a worker pool and
// returns the aggregate. Incident order follows corpus order.
func (o *Oracle) ClassifyCorpus(c *corpus.Corpus) *Result {
	return o.ClassifyCorpusContext(context.Background(), c)
}

// ClassifyCorpusContext is ClassifyCorpus under a caller-supplied context:
// cancelling it stops handing out ads, and the partial aggregate covers only
// the verdicts that finished before the cancel (see Pool).
func (o *Oracle) ClassifyCorpusContext(ctx context.Context, c *corpus.Corpus) *Result {
	p := o.NewPool(ctx)
	ads := c.All()
	for _, ad := range ads {
		if !p.Submit(ad) {
			break
		}
	}
	return p.Finish(ads)
}

// Pool classifies advertisements as they are submitted, on Parallelism
// workers fed through a small bounded queue, and folds each verdict into
// the aggregate as it arrives. Only incidents and graph findings are kept
// past their verdict; a clean ad's honeyclient report is dropped at once.
//
// Cancellation keeps the verdicts that finished before it. A verdict still
// running at the cancel may rest on a truncated execution, so it is dropped,
// neither scanned nor degraded, and ads still queued are left unscanned. The
// streaming service aborts a cut-short visit the same way.
type Pool struct {
	o     *Oracle
	ctx   context.Context
	queue chan *corpus.Ad
	wg    sync.WaitGroup

	mu        sync.Mutex
	res       Result
	incidents map[string]Incident
	findings  map[string]GraphFinding
}

// NewPool starts a classification pool under ctx. Every Pool must be
// finished with Finish.
func (o *Oracle) NewPool(ctx context.Context) *Pool {
	if ctx == nil {
		ctx = context.Background()
	}
	par := o.Parallelism
	if par <= 0 {
		par = 4
	}
	p := &Pool{
		o:   o,
		ctx: ctx,
		// One slot per worker keeps the workers fed while producers are
		// mid-visit, yet keeps classification within a few ads of the
		// crawl, so the ad's scripts are still in the code cache.
		queue:     make(chan *corpus.Ad, par),
		res:       Result{ByCategory: map[Category]int{}},
		incidents: map[string]Incident{},
		findings:  map[string]GraphFinding{},
	}
	p.wg.Add(par)
	for w := 0; w < par; w++ {
		go p.work()
	}
	return p
}

// Submit queues ad for classification, blocking while the queue is full.
// It returns false, without queueing, once the pool's context is cancelled:
// a cancelled producer never stays blocked on a full queue. Submit must not
// be called after Finish.
func (p *Pool) Submit(ad *corpus.Ad) bool {
	if p.ctx.Err() != nil {
		return false
	}
	select {
	case p.queue <- ad:
		return true
	case <-p.ctx.Done():
		return false
	}
}

// work classifies queued ads until the queue closes. After a cancel it
// drains the queue without classifying, so producers never block.
func (p *Pool) work() {
	defer p.wg.Done()
	for ad := range p.queue {
		if p.ctx.Err() != nil {
			continue
		}
		inc := p.o.ClassifyContext(p.ctx, ad)
		if p.ctx.Err() != nil {
			continue
		}
		p.add(inc)
	}
}

// add folds one finished verdict into the aggregate.
func (p *Pool) add(inc Incident) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.res.Scanned++
	if inc.Report != nil && inc.Report.Degraded {
		p.res.Degraded++
	}
	if inc.Malicious() {
		p.incidents[inc.AdHash] = inc
		p.res.ByCategory[inc.Category]++
	}
	if inc.Report != nil && inc.Report.Graph != nil {
		p.res.GraphScanned++
		if inc.Report.Graph.Verdict.Malicious {
			p.findings[inc.AdHash] = GraphFinding{
				AdHash:   inc.AdHash,
				Signals:  inc.Report.Graph.Verdict.Signals,
				Features: inc.Report.Graph.Features,
			}
		}
	}
}

// Finish waits for every submitted ad and returns the aggregate, listing
// incidents and graph findings in the order of ads (the corpus order).
func (p *Pool) Finish(ads []*corpus.Ad) *Result {
	close(p.queue)
	p.wg.Wait()
	res := p.res
	for _, ad := range ads {
		if inc, ok := p.incidents[ad.Hash]; ok {
			res.Incidents = append(res.Incidents, inc)
		}
		if gf, ok := p.findings[ad.Hash]; ok {
			res.GraphFindings = append(res.GraphFindings, gf)
		}
	}
	return &res
}
