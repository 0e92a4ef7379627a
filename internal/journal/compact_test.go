package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// stepper pauses a File's background compaction at each step until the
// test lets it go on.
type stepper struct {
	at     chan string
	resume chan struct{}
}

func pauseSteps(b *File) *stepper {
	s := &stepper{at: make(chan string), resume: make(chan struct{})}
	b.step = func(name string) {
		s.at <- name
		<-s.resume
	}
	return s
}

// reach waits until the compaction pauses at step want.
func (s *stepper) reach(t *testing.T, want string) {
	t.Helper()
	select {
	case got := <-s.at:
		if got != want {
			t.Fatalf("compaction paused at %q, want %q", got, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("compaction never reached %q", want)
	}
}

func (s *stepper) next() { s.resume <- struct{}{} }

// openWithRecs creates a file journal holding visit records 1..n.
func openWithRecs(t *testing.T, n int) (*File, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "study.wal")
	b, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		appendRec(t, b, i)
	}
	return b, path
}

func appendRec(t *testing.T, b Backend, seq int) {
	t.Helper()
	if err := NewLog(b).Append("visit", rec{seq, "x"}); err != nil {
		t.Fatalf("append %d: %v", seq, err)
	}
}

func checkpointRecs(seq int) []Record {
	cp, _ := json.Marshal(rec{seq, "checkpoint"})
	return []Record{{Kind: "checkpoint", Payload: cp}}
}

// replayPath replays what a fresh process opening path would recover.
func replayPath(t *testing.T, path string) []int {
	t.Helper()
	b, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var seqs []int
	for _, r := range replayAll(t, b) {
		seqs = append(seqs, r.Seq)
	}
	return seqs
}

func seqRange(lo, hi int) []int {
	var out []int
	for i := lo; i <= hi; i++ {
		out = append(out, i)
	}
	return out
}

// TestFileCompactKeepsAppendsMadeInFlight: records appended while the
// compaction finishes in the background follow the checkpoint, in order.
func TestFileCompactKeepsAppendsMadeInFlight(t *testing.T) {
	b, path := openWithRecs(t, 20)
	if err := b.CompactTo(checkpointRecs(100)); err != nil {
		t.Fatal(err)
	}
	for i := 21; i <= 60; i++ {
		appendRec(t, b, i)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	want := append([]int{100}, seqRange(21, 60)...)
	if got := replayPath(t, path); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after in-flight appends = %v, want %v", got, want)
	}
	if _, err := os.Stat(path + ".compact"); !os.IsNotExist(err) {
		t.Fatalf("staged file left behind: %v", err)
	}
}

// TestFileCompactBusy: a second compaction while one is in flight is
// refused and changes nothing; once the first is over, compaction works.
func TestFileCompactBusy(t *testing.T) {
	b, path := openWithRecs(t, 5)
	steps := pauseSteps(b)
	if err := b.CompactTo(checkpointRecs(100)); err != nil {
		t.Fatal(err)
	}
	for _, step := range []string{"staged", "synced", "swapped"} {
		steps.reach(t, step)
		logBefore, _ := os.ReadFile(path)
		if err := b.CompactTo(checkpointRecs(200)); !errors.Is(err, ErrCompactBusy) {
			t.Fatalf("at %s: second CompactTo = %v, want ErrCompactBusy", step, err)
		}
		if logAfter, _ := os.ReadFile(path); !bytes.Equal(logBefore, logAfter) {
			t.Fatalf("at %s: refused compaction changed the log", step)
		}
		steps.next()
	}
	b.step = nil
	if err := b.WaitCompact(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.CompactTo(checkpointRecs(300)); err != nil {
		t.Fatalf("compaction after the first finished: %v", err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayPath(t, path); !reflect.DeepEqual(got, []int{300}) {
		t.Fatalf("replay = %v, want [300]", got)
	}
}

// TestFileCompactEveryStepRecovers walks a compaction step by step. After
// each step a fresh open of the path (a process that crashed there) must
// recover either the whole old log or the checkpoint plus every record
// appended after the mark — and never read a stale staged file.
func TestFileCompactEveryStepRecovers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "study.wal")
	// A stale staged file from an earlier crash, holding a checkpoint that
	// must never be replayed.
	if err := os.WriteFile(path+".compact", frame("checkpoint", []byte(`{"seq":999,"msg":"stale"}`)), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		appendRec(t, b, i)
	}
	if got := replayPath(t, path); !reflect.DeepEqual(got, seqRange(1, 3)) {
		t.Fatalf("replay with a stale staged file = %v", got)
	}

	steps := pauseSteps(b)
	if err := b.CompactTo(checkpointRecs(100)); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		step string
		want []int // recovered after appending record seq
		seq  int
	}{
		{"staged", seqRange(1, 4), 4},
		{"synced", seqRange(1, 5), 5},
		{"swapped", []int{100, 4, 5, 6}, 6},
	}
	for _, c := range cases {
		steps.reach(t, c.step)
		appendRec(t, b, c.seq)
		if got := replayPath(t, path); !reflect.DeepEqual(got, c.want) {
			t.Fatalf("crash after %s: recovered %v, want %v", c.step, got, c.want)
		}
		steps.next()
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayPath(t, path); !reflect.DeepEqual(got, []int{100, 4, 5, 6}) {
		t.Fatalf("after close: recovered %v", got)
	}
	if _, err := os.Stat(path + ".compact"); !os.IsNotExist(err) {
		t.Fatalf("staged file left behind: %v", err)
	}
}

// TestFileCompactFailureSurfaces: a compaction that fails in the background
// leaves the old log intact, and the next Append and Close return the
// failure.
func TestFileCompactFailureSurfaces(t *testing.T) {
	b, path := openWithRecs(t, 3)
	steps := pauseSteps(b)
	if err := b.CompactTo(checkpointRecs(100)); err != nil {
		t.Fatal(err)
	}
	steps.reach(t, "staged")
	steps.next()
	steps.reach(t, "synced")
	// Put a non-empty directory where the log was, so the rename fails.
	// The open handle keeps writing the moved log.
	moved := path + ".moved"
	if err := os.Rename(path, moved); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(path, "block"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	appendRec(t, b, 4)
	steps.next()

	if err := b.WaitCompact(); !errors.Is(err, ErrCompactFailed) {
		t.Fatalf("WaitCompact = %v, want ErrCompactFailed", err)
	}
	if err := NewLog(b).Append("visit", rec{5, "x"}); !errors.Is(err, ErrCompactFailed) {
		t.Fatalf("Append after failure = %v, want ErrCompactFailed", err)
	}
	if err := b.CompactTo(checkpointRecs(200)); !errors.Is(err, ErrCompactFailed) {
		t.Fatalf("CompactTo after failure = %v, want ErrCompactFailed", err)
	}
	if err := b.Close(); !errors.Is(err, ErrCompactFailed) {
		t.Fatalf("Close after failure = %v, want ErrCompactFailed", err)
	}
	if got := replayPath(t, moved); !reflect.DeepEqual(got, seqRange(1, 4)) {
		t.Fatalf("old log after failed compaction = %v, want records 1-4", got)
	}
	if _, err := os.Stat(path + ".compact"); !os.IsNotExist(err) {
		t.Fatalf("staged file left behind: %v", err)
	}
}

// TestFileCloseWaitsForCompaction: ReadAll and Close do not return while a
// compaction is in flight, and what they see is the compacted log.
func TestFileCloseWaitsForCompaction(t *testing.T) {
	b, path := openWithRecs(t, 3)
	steps := pauseSteps(b)
	// pausedAt starts a compaction to a checkpoint of seq, holds it just
	// before the replaced log is closed, runs op, checks that op is still
	// blocked, then lets the compaction finish and returns op's error.
	pausedAt := func(seq int, name string, op func() error) error {
		if err := b.CompactTo(checkpointRecs(seq)); err != nil {
			t.Fatal(err)
		}
		for _, step := range []string{"staged", "synced"} {
			steps.reach(t, step)
			steps.next()
		}
		steps.reach(t, "swapped")
		done := make(chan error)
		go func() { done <- op() }()
		select {
		case <-done:
			t.Fatalf("%s returned while the compaction was in flight", name)
		case <-time.After(50 * time.Millisecond):
		}
		steps.next()
		return <-done
	}

	var frames [][]byte
	err := pausedAt(100, "ReadAll", func() (err error) {
		frames, err = b.ReadAll()
		return err
	})
	if err != nil || len(frames) != 1 {
		t.Fatalf("ReadAll = %d frames, %v; want the one checkpoint", len(frames), err)
	}
	appendRec(t, b, 4)
	if err := pausedAt(200, "Close", b.Close); err != nil {
		t.Fatal(err)
	}
	if got := replayPath(t, path); !reflect.DeepEqual(got, []int{200}) {
		t.Fatalf("after close: recovered %v, want [200]", got)
	}
}
