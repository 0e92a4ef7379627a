package main

import (
	"testing"
	"time"
)

const ms = time.Millisecond

func TestSelfTimeNestedChildren(t *testing.T) {
	// root [0,100) ⊃ child [10,40) ⊃ grandchild [15,25); child2 [50,60).
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "child", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 2, Name: "grandchild", Start: 15 * ms, End: 25 * ms},
		{ID: 4, Parent: 1, Name: "child2", Start: 50 * ms, End: 60 * ms},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{1: 60 * ms, 2: 20 * ms, 3: 10 * ms, 4: 10 * ms} {
		if self[id] != want {
			t.Errorf("self[%d] = %v, want %v", id, self[id], want)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// Two workers' round trips overlap: [10,30) and [20,50) cover 40ms, not
	// 50; a third starts before the parent and one ends after it, and only
	// the part inside the parent counts.
	spans := []span{
		{ID: 1, Name: "phase", Start: 5 * ms, End: 100 * ms},
		{ID: 2, Parent: 1, Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Start: 20 * ms, End: 50 * ms},
		{ID: 4, Parent: 1, Start: 0, End: 8 * ms},
		{ID: 5, Parent: 1, Start: 90 * ms, End: 120 * ms},
		{ID: 6, Parent: 1, Start: 30 * ms, End: 30 * ms}, // empty
	}
	// Covered inside [5,100): [5,8) + [10,50) + [90,100) = 3+40+10 = 53.
	if got, want := selfTimes(spans)[1], 95*ms-53*ms; got != want {
		t.Fatalf("self = %v, want %v", got, want)
	}
}

func TestSelfTimeFullyCovered(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Start: 0, End: 6 * ms},
		{ID: 3, Parent: 1, Start: 4 * ms, End: 10 * ms},
	}
	if got := selfTimes(spans)[1]; got != 0 {
		t.Fatalf("self = %v, want 0", got)
	}
}

func TestCommitLatencyFromDueTime(t *testing.T) {
	// 100/s: seq i is due at i*10ms. The generator runs late — each offer
	// slips a further 5ms — and each commit lands 2ms after its offer, so
	// latency timed from due time grows with the generator's lag instead of
	// staying at the 2ms the system itself took.
	var commits []commit
	for seq := int64(0); seq < 4; seq++ {
		offered := time.Duration(seq)*10*ms + time.Duration(seq)*5*ms
		commits = append(commits, commit{Seq: seq, At: offered + 2*ms})
	}
	got := commitLatencies(commits, 4, 100, 60*ms)
	want := []time.Duration{2 * ms, 7 * ms, 12 * ms, 17 * ms}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("latency[%d] = %v, want %v (all %v)", i, got[i], want[i], got)
		}
	}
}

func TestCommitLatencyShedIsMiss(t *testing.T) {
	// seq 1 was shed: it is charged end − due.
	commits := []commit{{Seq: 0, At: 3 * ms}, {Seq: 2, At: 25 * ms}}
	got := commitLatencies(commits, 3, 100, 40*ms)
	want := []time.Duration{3 * ms, 30 * ms, 5 * ms}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("latency[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestCommitLatencyClosedLoop(t *testing.T) {
	// Rate 0: everything is due at the start, so latency is the commit time.
	got := commitLatencies([]commit{{Seq: 1, At: 9 * ms}, {Seq: 0, At: 4 * ms}}, 2, 0, 10*ms)
	if got[0] != 4*ms || got[1] != 9*ms {
		t.Fatalf("latencies = %v, want [4ms 9ms]", got)
	}
}

func TestGenLag(t *testing.T) {
	// 900 impressions at 450/s are scheduled over 2s; a 2.3s run lagged 0.3s.
	if got := genLag(2300*ms, 900, 450); got != 300*ms {
		t.Fatalf("genLag = %v, want 300ms", got)
	}
	// A run that kept its schedule has no lag.
	if got := genLag(2*time.Second, 900, 450); got != 0 {
		t.Fatalf("genLag = %v, want 0", got)
	}
	// A closed loop has no schedule: the whole run is lag.
	if got := genLag(1500*ms, 900, 0); got != 1500*ms {
		t.Fatalf("closed-loop genLag = %v, want 1.5s", got)
	}
}

func TestMedianPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if m := median(xs); m != 3 {
		t.Errorf("median = %v, want 3", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v, want 2.5", m)
	}
	if xs[0] != 5 {
		t.Errorf("median sorted its input")
	}
	var hundred []float64
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, float64(i))
	}
	if p := percentile(hundred, 0.99); p != 99 {
		t.Errorf("p99 = %v, want 99", p)
	}
	if p := percentile(hundred, 0.5); p != 50 {
		t.Errorf("p50 = %v, want 50", p)
	}
	if p := percentile(nil, 0.5); p != 0 {
		t.Errorf("empty percentile = %v, want 0", p)
	}
}

func TestStudySeedWraps(t *testing.T) {
	if studySeed(1) != studySeeds[0] || studySeed(uint64(len(studySeeds))+1) != studySeeds[0] {
		t.Fatalf("studySeed does not start at and wrap to the first study seed")
	}
	if studySeed(0) != studySeeds[len(studySeeds)-1] {
		t.Fatalf("studySeed(0) = %d, want the last study seed", studySeed(0))
	}
}

func TestTracerConcurrentSpans(t *testing.T) {
	// Transport and journal wrappers record spans from many goroutines while
	// the driving goroutine opens and closes the spans they attach to.
	tr := newTracer()
	done := make(chan struct{})
	const workers, each = 8, 200
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < each; i++ {
				parent := tr.cur.Load()
				now := time.Now()
				tr.add("leaf", parent, now, now)
			}
			done <- struct{}{}
		}()
	}
	var phases int
	for finished := 0; finished < workers; {
		select {
		case <-done:
			finished++
		default:
			tr.run("phase", func() {})
			phases++
		}
	}
	if got, want := len(tr.snapshot()), workers*each+phases; got != want {
		t.Fatalf("recorded %d spans, want %d", got, want)
	}
}
