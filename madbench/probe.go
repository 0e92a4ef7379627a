package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"madave/internal/journal"
	"madave/internal/memnet"
	"madave/internal/stream"
)

// tracer holds the spans of one traced run in memory. Spans are recorded by
// the benchmark's own wrappers around public seams of the program; nothing
// inside the program is instrumented.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	// cur is the span that spans opened by the transport and journal
	// wrappers attach to: the phase or replayed call running right now.
	cur atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(name string, parent int64, start, end time.Time) {
	s := span{ID: t.nextID.Add(1), Parent: parent, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// run times fn as a span that wrapper spans opened meanwhile attach to, and
// returns the span's ID and duration. Calls to run must not overlap.
func (t *tracer) run(name string, fn func()) (int64, time.Duration) {
	id := t.nextID.Add(1)
	prev := t.cur.Swap(id)
	start := time.Now()
	fn()
	end := time.Now()
	t.cur.Store(prev)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: prev, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	t.mu.Unlock()
	return id, end.Sub(start)
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes every span, one JSON object a line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// htmlDoc is one HTML response body the crawler received.
type htmlDoc struct {
	URL string
	// Top marks a top-level page load (the crawler sends no Referer for
	// those; frames and resources carry their document's URL).
	Top  bool
	Body string
}

// docSink collects the HTML documents a crawler transport delivers.
type docSink struct {
	mu   sync.Mutex
	docs []htmlDoc
}

func (s *docSink) all() []htmlDoc {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]htmlDoc(nil), s.docs...)
}

// timedTransport is the in-memory network transport the program uses by
// default, with every round trip recorded as a span named name.
type timedTransport struct {
	inner http.RoundTripper
	tr    *tracer
	name  string
	docs  *docSink // nil: bodies are not collected
}

// transport returns a factory for the crawler's or honeyclient's Transport
// seam: the default memnet transport over u, timed.
func (t *tracer) transport(u *memnet.Universe, name string, docs *docSink) func() http.RoundTripper {
	return func() http.RoundTripper {
		return &timedTransport{inner: &memnet.Transport{U: u}, tr: t, name: name, docs: docs}
	}
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent := t.tr.cur.Load()
	start := time.Now()
	resp, err := t.inner.RoundTrip(req)
	t.tr.add(t.name, parent, start, time.Now())
	if t.docs != nil && err == nil && strings.Contains(resp.Header.Get("Content-Type"), "html") {
		// The in-memory transport hands back a fully buffered body; copy it
		// out and give the caller an identical reader.
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, fmt.Errorf("madbench: reading %s: %w", req.URL, rerr)
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		t.docs.mu.Lock()
		t.docs.docs = append(t.docs.docs, htmlDoc{URL: req.URL.String(), Top: req.Header.Get("Referer") == "", Body: string(body)})
		t.docs.mu.Unlock()
	}
	return resp, err
}

// appended is one frame a journal probe passed to its file, with the time
// the append returned: the commit point.
type appended struct {
	at    time.Time
	frame []byte
}

// journalProbe is the file journal as the service sees it, with each commit
// time kept for commit latency and, when traced, each append and compaction
// recorded as a span.
type journalProbe struct {
	*journal.File
	tr *tracer // nil: untraced, commit times only

	mu          sync.Mutex
	appends     []appended
	compactions []time.Duration
}

func (p *journalProbe) Append(frame []byte) error {
	var parent int64
	var start time.Time
	if p.tr != nil {
		parent = p.tr.cur.Load()
		start = time.Now()
	}
	err := p.File.Append(frame)
	now := time.Now()
	if p.tr != nil {
		p.tr.add("journal.append", parent, start, now)
	}
	if err == nil {
		// Log.Append frames a fresh buffer for every record, so keeping the
		// slice does not alias anything the journal reuses.
		p.mu.Lock()
		p.appends = append(p.appends, appended{at: now, frame: frame})
		p.mu.Unlock()
	}
	return err
}

func (p *journalProbe) CompactTo(recs []journal.Record) error {
	start := time.Now()
	var parent int64
	if p.tr != nil {
		parent = p.tr.cur.Load()
	}
	err := p.File.CompactTo(recs)
	end := time.Now()
	if p.tr != nil {
		p.tr.add("journal.compact", parent, start, end)
	}
	p.mu.Lock()
	p.compactions = append(p.compactions, end.Sub(start))
	p.mu.Unlock()
	return err
}

// visitFrame is one committed visit record with its frame size and commit
// time.
type visitFrame struct {
	rec  stream.VisitRecord
	size int
	at   time.Time
}

// visits decodes the visit records the probe saw committed, in commit order.
// A frame is "<hash> <kind> <payload>\n".
func (p *journalProbe) visits() ([]visitFrame, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]visitFrame, 0, len(p.appends))
	for _, a := range p.appends {
		parts := bytes.SplitN(bytes.TrimSuffix(a.frame, []byte("\n")), []byte(" "), 3)
		if len(parts) != 3 {
			return nil, fmt.Errorf("madbench: malformed journal frame %q", a.frame)
		}
		if string(parts[1]) != "visit" {
			continue
		}
		v := visitFrame{size: len(a.frame), at: a.at}
		if err := json.Unmarshal(parts[2], &v.rec); err != nil {
			return nil, fmt.Errorf("madbench: journal visit payload: %w", err)
		}
		out = append(out, v)
	}
	return out, nil
}
