package stream

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"madave/internal/core"
	"madave/internal/fuzzutil/leakcheck"
	"madave/internal/journal"
	"madave/internal/telemetry"
)

// newGraphService builds a service with the graph oracle on, so both the
// summary and the graph aggregate carry data.
func newGraphService(t *testing.T, seed uint64, j journal.Backend, every int) *Service {
	t.Helper()
	cfg := testStudyConfig(seed)
	cfg.GraphOracle = true
	study, err := core.NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(study, ServiceConfig{Journal: j, CheckpointEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func witness(sum StreamSummary, g GraphSummary) string {
	return string(sum.JSON()) + "\n" + string(g.JSON())
}

// TestServiceFileJournalCompactionMatchesMem: a file-journal run whose
// compactions overlap its appends ends on the bytes of a run that never
// compacts, and so does a service recovered from its file. No goroutine
// outlives the run.
func TestServiceFileJournalCompactionMatchesMem(t *testing.T) {
	const seed = 23
	base := runToCompletion(t, newGraphService(t, seed, journal.NewMem(), -1))
	want := witness(base.Summary, base.Graph)
	if base.Graph.Scanned == 0 {
		t.Fatalf("graph oracle inactive: %s", base.Graph.JSON())
	}

	path := filepath.Join(t.TempDir(), "study.wal")
	fb, err := journal.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap := leakcheck.Before()
	const every = 2
	svc := newGraphService(t, seed, fb, every)
	res := runToCompletion(t, svc)
	snap.Check(t)
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	if got := witness(res.Summary, res.Graph); got != want {
		t.Fatalf("file-journal run differs from the uncompacted run:\n%s\n%s", got, want)
	}
	busy, _ := svc.tel.Registry.CounterValue("stream_checkpoint_skipped_total", telemetry.L("reason", "busy"))
	if res.Ops.Checkpoints == 0 {
		t.Fatalf("no compaction in %d commits at CheckpointEvery=%d (busy skips %d)", res.Ops.Committed, every, busy)
	}
	if res.Ops.Checkpoints+busy != res.Ops.Committed/every {
		t.Fatalf("%d checkpoints + %d busy skips, want one per %d of %d commits",
			res.Ops.Checkpoints, busy, every, res.Ops.Committed)
	}
	if _, err := os.Stat(path + ".compact"); !os.IsNotExist(err) {
		t.Fatalf("staged checkpoint left behind: %v", err)
	}

	fb, err = journal.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	rec := newGraphService(t, seed, fb, every)
	if rec.Recovered() != res.Ops.Committed {
		t.Fatalf("recovered %d visits, run committed %d", rec.Recovered(), res.Ops.Committed)
	}
	if got := witness(rec.Summary(), rec.GraphSummary()); got != want {
		t.Fatalf("replayed file differs from the uncompacted run:\n%s\n%s", got, want)
	}
}

// breakRename makes the next compaction of a file journal fail at its
// rename: a non-empty directory takes the log's place. The open handle
// keeps the moved log.
type breakRename struct {
	*journal.File
}

func (b breakRename) CompactTo(recs []journal.Record) error {
	path := b.Path()
	if err := os.Rename(path, path+".moved"); err != nil {
		return err
	}
	if err := os.Mkdir(path, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(path, "block"), nil, 0o644); err != nil {
		return err
	}
	return b.File.CompactTo(recs)
}

// TestServiceRunFailsOnCompactionFailureAfterLastRecord: a compaction that
// starts at the last commit and fails in the background has no later
// append to report it. Run must still return it and mark the service
// failed.
func TestServiceRunFailsOnCompactionFailureAfterLastRecord(t *testing.T) {
	const seed = 29
	study, err := core.NewStudy(testStudyConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	planned := len(study.StreamCrawler().Visits(study.CrawlSites()))

	fb, err := journal.OpenFile(filepath.Join(t.TempDir(), "study.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	svc := newTestService(t, seed, breakRename{fb}, func(c *ServiceConfig) { c.CheckpointEvery = planned })
	res, err := svc.Run(context.Background())
	if !errors.Is(err, journal.ErrCompactFailed) {
		t.Fatalf("Run = %v, want a compaction failure", err)
	}
	if res.Ops.Committed != int64(planned) || res.Ops.Checkpoints != 1 {
		t.Fatalf("ops = %+v, want %d commits and the one compaction", res.Ops, planned)
	}
	if ph := svc.Phase(); ph != PhaseFailed {
		t.Fatalf("phase = %s, want %s", ph, PhaseFailed)
	}
	if n, _ := svc.tel.Registry.CounterValue("stream_commit_errors_total", telemetry.L("cause", "compact")); n != 1 {
		t.Fatalf("compact commit errors = %d, want 1", n)
	}
}
