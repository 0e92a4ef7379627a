package stream

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"madave/internal/core"
	"madave/internal/journal"
	"madave/internal/memnet"
	"madave/internal/resilient"
)

// testStudyConfig mirrors the root chaos-soak configuration at unit-test
// scale: a third of requests faulted, fast retries, no wall-clock visit
// deadline (determinism must not depend on machine speed).
func testStudyConfig(seed uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.CrawlSites = 30
	cfg.Crawl.Days = 1
	cfg.Crawl.Refreshes = 2
	cfg.Crawl.Parallelism = 4
	cfg.Crawl.VisitTimeout = -1
	cfg.Crawl.Retry = resilient.Policy{
		MaxAttempts:    3,
		BaseDelay:      time.Microsecond,
		MaxDelay:       20 * time.Microsecond,
		AttemptTimeout: 250 * time.Millisecond,
	}
	cfg.AnalysisRetry = cfg.Crawl.Retry
	cfg.OracleParallelism = 4
	prof := memnet.UniformProfile(0.3)
	cfg.Chaos = &prof
	return cfg
}

func newTestService(t *testing.T, seed uint64, j journal.Backend, mut func(*ServiceConfig)) *Service {
	t.Helper()
	study, err := core.NewStudy(testStudyConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	cfg := ServiceConfig{Journal: j, CheckpointEvery: -1}
	if mut != nil {
		mut(&cfg)
	}
	svc, err := NewService(study, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func runToCompletion(t *testing.T, svc *Service) *RunResult {
	t.Helper()
	res, err := svc.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestServiceUninterruptedRunsAreByteIdentical(t *testing.T) {
	a := runToCompletion(t, newTestService(t, 7, journal.NewMem(), nil))
	b := runToCompletion(t, newTestService(t, 7, journal.NewMem(), nil))
	if a.Summary.Visits == 0 || a.Summary.AdFrames == 0 {
		t.Fatalf("degenerate run: %+v", a.Summary)
	}
	if !bytes.Equal(a.Summary.JSON(), b.Summary.JSON()) {
		t.Fatalf("same-seed summaries differ:\n%s\n%s", a.Summary.JSON(), b.Summary.JSON())
	}
	if a.Ops.Committed != int64(a.Summary.Visits) || a.Ops.Aborted != 0 {
		t.Fatalf("ops = %+v for %d visits", a.Ops, a.Summary.Visits)
	}
}

func TestServiceKillRecoverByteIdentical(t *testing.T) {
	baseline := runToCompletion(t, newTestService(t, 11, journal.NewMem(), nil))

	// Crash at the journal commit point twice, recovering each time with a
	// fresh service (a process restart), then finish.
	mem := journal.NewMem()
	mem.FailAfter = 17
	svc := newTestService(t, 11, mem, nil)
	if _, err := svc.Run(context.Background()); !errors.Is(err, journal.ErrCrashed) {
		t.Fatalf("first leg: want ErrCrashed, got %v", err)
	}

	mem.Reopen(23)
	svc = newTestService(t, 11, mem, nil)
	if svc.Recovered() == 0 {
		t.Fatal("second leg recovered nothing")
	}
	if _, err := svc.Run(context.Background()); !errors.Is(err, journal.ErrCrashed) {
		t.Fatalf("second leg: want ErrCrashed, got %v", err)
	}

	mem.Reopen(0)
	svc = newTestService(t, 11, mem, nil)
	rec := svc.Recovered()
	if rec == 0 {
		t.Fatal("final leg recovered nothing")
	}
	final := runToCompletion(t, svc)
	if final.Summary.Visits != baseline.Summary.Visits {
		t.Fatalf("visits = %d, baseline %d", final.Summary.Visits, baseline.Summary.Visits)
	}
	if !bytes.Equal(final.Summary.JSON(), baseline.Summary.JSON()) {
		t.Fatalf("killed-and-recovered summary differs from uninterrupted baseline:\n%s\n%s",
			final.Summary.JSON(), baseline.Summary.JSON())
	}
	if final.Ops.Recovered != rec || final.Ops.Committed != int64(final.Summary.Visits)-rec {
		t.Fatalf("final ops = %+v (recovered %d)", final.Ops, rec)
	}
}

// drainOnCommit requests a graceful drain from inside the first journal
// append, so the drain lands mid-stream however fast the machine runs.
type drainOnCommit struct {
	journal.Backend
	cancel context.CancelFunc
}

func (d *drainOnCommit) Append(frame []byte) error {
	d.cancel()
	return d.Backend.Append(frame)
}

func TestServiceDrainThenRecoverByteIdentical(t *testing.T) {
	baseline := runToCompletion(t, newTestService(t, 13, journal.NewMem(), nil))

	// Request a graceful drain at the first commit: in-flight visits finish
	// and commit, the rest stay pending. One-slot queues and single workers
	// keep almost all of the schedule out of the pipeline when the drain
	// lands. A recovered service finishes the stream and must land on the
	// baseline bytes.
	mem := journal.NewMem()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	svc := newTestService(t, 13, &drainOnCommit{Backend: mem, cancel: cancel}, func(c *ServiceConfig) {
		c.Stream.Queue = 1
		c.CrawlWorkers = 1
		c.AnalyzeWorkers = 1
	})
	partial, err := svc.Run(ctx)
	if err != nil {
		t.Fatalf("drained run: %v", err)
	}
	if partial.Summary.Visits == 0 || partial.Summary.Visits >= baseline.Summary.Visits {
		t.Fatalf("drained run committed %d of %d visits, want a strict non-empty prefix",
			partial.Summary.Visits, baseline.Summary.Visits)
	}

	svc = newTestService(t, 13, mem, nil)
	if got := svc.Recovered(); got != int64(partial.Summary.Visits) {
		t.Fatalf("recovered %d visits, drained run committed %d", got, partial.Summary.Visits)
	}
	final := runToCompletion(t, svc)
	if !bytes.Equal(final.Summary.JSON(), baseline.Summary.JSON()) {
		t.Fatalf("drained-and-recovered summary differs from baseline:\n%s\n%s",
			final.Summary.JSON(), baseline.Summary.JSON())
	}
}

func TestServiceCheckpointCompactionRoundTrip(t *testing.T) {
	mem := journal.NewMem()
	res := runToCompletion(t, newTestService(t, 17, mem, func(c *ServiceConfig) {
		c.CheckpointEvery = 10
	}))
	if res.Ops.Checkpoints == 0 {
		t.Fatal("no compactions despite CheckpointEvery=10")
	}

	// A service recovered from the compacted journal knows every visit is
	// done and has nothing left to run.
	svc := newTestService(t, 17, mem, func(c *ServiceConfig) { c.CheckpointEvery = 10 })
	if got := svc.Recovered(); got != int64(res.Summary.Visits) {
		t.Fatalf("recovered %d visits from checkpointed journal, want %d", got, res.Summary.Visits)
	}
	again := runToCompletion(t, svc)
	if again.Ops.Committed != 0 {
		t.Fatalf("recovered service re-executed %d visits", again.Ops.Committed)
	}
	if !bytes.Equal(again.Summary.JSON(), res.Summary.JSON()) {
		t.Fatalf("checkpoint round-trip changed the summary:\n%s\n%s",
			again.Summary.JSON(), res.Summary.JSON())
	}
}

func TestServiceServeModeShedsCountedUnderOverload(t *testing.T) {
	svc := newTestService(t, 19, journal.NewMem(), func(c *ServiceConfig) {
		c.Serve = true
		c.MaxImpressions = 150
		c.ShedCapacity = 2
		c.CrawlWorkers = 1
		c.AnalyzeWorkers = 1
		c.Stream.Queue = 2
	})
	res := runToCompletion(t, svc)
	st := res.Ops.Shed
	if st.Offered != 150 {
		t.Fatalf("offered = %d, want 150", st.Offered)
	}
	if st.Buffered != 0 {
		t.Fatalf("buffered = %d after drain", st.Buffered)
	}
	if st.Shed == 0 {
		t.Fatal("no impressions shed despite a saturated 2-slot admission buffer")
	}
	if st.Shed+st.Delivered != st.Offered {
		t.Fatalf("conservation violated: %+v", st)
	}
	if res.Ops.Committed != st.Delivered {
		t.Fatalf("committed %d != delivered %d: delivered impressions must never vanish silently",
			res.Ops.Committed, st.Delivered)
	}
	if int64(res.Summary.Visits) != st.Delivered {
		t.Fatalf("summary visits %d != delivered %d", res.Summary.Visits, st.Delivered)
	}
}

// TestPaceOffersCatchesUpAfterStall pins the serve-rate schedule: offer i is
// due at start + i/rate, never earlier, and a source that stalls offers
// every overdue impression on wake-up instead of dropping its turns. A
// ticker-paced source loses the ticks that fire during the stall and ends
// a full stall late.
func TestPaceOffersCatchesUpAfterStall(t *testing.T) {
	const (
		n     = 100
		rate  = 200.0 // 5 ms apart: the schedule lasts 500 ms
		stall = 400 * time.Millisecond
	)
	start := time.Now()
	at := make([]time.Duration, 0, n)
	never := make(chan struct{})
	paceOffers(n, rate, never, never, func(i int) {
		at = append(at, time.Since(start))
		if i == 0 {
			time.Sleep(stall) // a late receiver: 80 offers fall due meanwhile
		}
	})
	if len(at) != n {
		t.Fatalf("offered %d impressions, want %d", len(at), n)
	}
	for i, d := range at {
		if due := time.Duration(float64(i) / rate * float64(time.Second)); d < due {
			t.Fatalf("offer %d at %v, before its due time %v", i, d, due)
		}
	}
	// On schedule the last offer is due at 495 ms. A ticker-paced source
	// resumes after the stall one tick at a time and ends near 900 ms.
	if last := at[n-1]; last > 700*time.Millisecond {
		t.Fatalf("last offer at %v: the source did not catch up after a %v stall (schedule ends at %v)",
			last, stall, time.Duration(float64(n-1)/rate*float64(time.Second)))
	}
}

// TestPaceOffersStopsOnDrain checks the paced source returns promptly when
// the pipeline drains mid-schedule.
func TestPaceOffersStopsOnDrain(t *testing.T) {
	draining := make(chan struct{})
	offered := 0
	paceOffers(1000, 100, draining, nil, func(i int) {
		offered++
		if i == 2 {
			close(draining)
		}
	})
	if offered != 3 {
		t.Fatalf("offered %d impressions after drain at the third, want 3", offered)
	}
}
