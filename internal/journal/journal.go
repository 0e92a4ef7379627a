// Package journal is the crash-safety substrate of the streaming study
// service: an append-only write-ahead log of content-hashed records plus
// periodic checkpoint records, with an in-memory backend (tests, soaks) and
// a file backend (the -checkpoint flag).
//
// The contract the streaming pipeline builds on:
//
//   - Append is the commit point. A record that Append returned nil for is
//     durable for this process lifetime (file writes are flushed to the OS,
//     fsync-free: the layer protects against process death, not power loss —
//     the same budget the paper's crawler operated under, where a crashed
//     crawler resumed from its database).
//   - Every record carries a truncated SHA-256 of its body. Opening a file
//     journal validates records in order and truncates the log at the first
//     torn or corrupt line (a crash mid-Append), so a half-written tail can
//     never be replayed as data and never corrupts framing for subsequent
//     appends.
//   - Replay hands records back in append order. Consumers fold them with
//     commutative state transitions, so a log written by any worker
//     interleaving replays to the same state.
package journal

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
)

// hashLen is the number of hex characters of the record body's SHA-256 kept
// in the frame. 16 hex chars (64 bits) makes an accidental collision with a
// torn line astronomically unlikely while keeping frames compact.
const hashLen = 16

// Record is one journal entry: a kind tag plus an opaque JSON payload.
type Record struct {
	Kind    string
	Payload json.RawMessage
}

// ErrCorrupt reports a record frame that failed validation somewhere other
// than the tail of the log (interior corruption cannot be repaired by
// truncation and is surfaced instead of silently dropped).
var ErrCorrupt = errors.New("journal: corrupt record")

// Backend is the storage a Log appends to. Implementations must make
// Append atomic with respect to ReadAll of a *reopened* backend: a torn
// append is detected and discarded, never returned as a record.
type Backend interface {
	// Append durably stores one framed record.
	Append(frame []byte) error
	// ReadAll returns every intact frame in append order.
	ReadAll() ([][]byte, error)
	// Close releases resources. A closed backend rejects further appends.
	Close() error
}

// frame encodes a record as one line:
//
//	<16 hex hash> <kind> <payload JSON>\n
//
// The hash covers "<kind> <payload>". Line framing keeps the file greppable
// and makes torn-tail detection trivial: a line without a newline, or whose
// hash does not match, is a crashed append.
func frame(kind string, payload []byte) []byte {
	if strings.ContainsAny(kind, " \n") {
		panic("journal: record kind must not contain spaces or newlines")
	}
	var b bytes.Buffer
	b.Grow(hashLen + 1 + len(kind) + 1 + len(payload) + 1)
	sum := sha256.New()
	sum.Write([]byte(kind))
	sum.Write([]byte{' '})
	sum.Write(payload)
	b.WriteString(hex.EncodeToString(sum.Sum(nil))[:hashLen])
	b.WriteByte(' ')
	b.WriteString(kind)
	b.WriteByte(' ')
	b.Write(payload)
	b.WriteByte('\n')
	return b.Bytes()
}

// parseFrame validates one line (without its trailing newline) and returns
// the record, or false when the line is torn/corrupt.
func parseFrame(line []byte) (Record, bool) {
	if len(line) < hashLen+2 || line[hashLen] != ' ' {
		return Record{}, false
	}
	wantHash := string(line[:hashLen])
	rest := line[hashLen+1:]
	sp := bytes.IndexByte(rest, ' ')
	if sp <= 0 {
		return Record{}, false
	}
	sum := sha256.Sum256(rest)
	if hex.EncodeToString(sum[:])[:hashLen] != wantHash {
		return Record{}, false
	}
	payload := make([]byte, len(rest)-sp-1)
	copy(payload, rest[sp+1:])
	return Record{Kind: string(rest[:sp]), Payload: payload}, true
}

// Compactor is implemented by backends that can atomically replace their
// entire contents with a checkpoint-plus-tail record set while staying open
// for appends, bounding log growth without a close/reopen dance.
type Compactor interface {
	CompactTo(recs []Record) error
}

// Mem is an in-memory backend. It survives as long as the caller holds it —
// the kill-recover soaks "crash" a pipeline while keeping the Mem journal,
// exactly like a process dying while its file survives.
type Mem struct {
	mu     sync.Mutex
	frames [][]byte
	closed bool
	// FailAfter, when positive, makes Append fail (simulating a crash at
	// the commit point) once that many successful appends have happened.
	// The failing append writes a deliberately torn prefix of its frame
	// first, so recovery code sees exactly what a mid-write kill leaves.
	FailAfter int
	appended  int
}

// ErrCrashed is returned by a backend whose injected crash point was hit.
var ErrCrashed = errors.New("journal: simulated crash during append")

// NewMem returns an empty in-memory backend.
func NewMem() *Mem { return &Mem{} }

// Append implements Backend.
func (m *Mem) Append(frame []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("journal: append to closed backend")
	}
	if m.FailAfter > 0 && m.appended >= m.FailAfter {
		// Tear the frame: keep a prefix that parseFrame must reject.
		if len(frame) > 2 {
			torn := make([]byte, len(frame)/2)
			copy(torn, frame)
			m.frames = append(m.frames, torn)
		}
		return ErrCrashed
	}
	cp := make([]byte, len(frame))
	copy(cp, frame)
	m.frames = append(m.frames, cp)
	m.appended++
	return nil
}

// ReadAll implements Backend: intact frames up to the first torn one.
func (m *Mem) ReadAll() ([][]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([][]byte, 0, len(m.frames))
	for _, f := range m.frames {
		if len(f) == 0 || f[len(f)-1] != '\n' {
			break // torn tail from an injected crash
		}
		if _, ok := parseFrame(f[:len(f)-1]); !ok {
			break
		}
		out = append(out, f)
	}
	// Discard the torn tail so the next append does not splice into it,
	// mirroring the file backend's truncate-on-open.
	m.frames = m.frames[:len(out):len(out)]
	return out, nil
}

// CompactTo implements Compactor: the backend's contents are replaced
// wholesale. Crash injection does not apply — compaction replaces history
// atomically or not at all, mirroring the file backend's rename.
func (m *Mem) CompactTo(recs []Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("journal: compact of closed backend")
	}
	frames := make([][]byte, 0, len(recs))
	for _, r := range recs {
		frames = append(frames, frame(r.Kind, r.Payload))
	}
	m.frames = frames
	return nil
}

// Reopen clears the injected crash point and reopens a "crashed" backend
// for the next recovery attempt, like reopening the file after a kill.
func (m *Mem) Reopen(failAfter int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = false
	m.FailAfter = failAfter
	m.appended = 0
}

// Close implements Backend.
func (m *Mem) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}

// File is the on-disk backend: one frame per line, flushed (not fsynced)
// per append. Its compaction finishes in the background: CompactTo stages
// the checkpoint and returns, and appends keep landing in the old log until
// the checkpoint (fsynced) and the records appended since replace it.
type File struct {
	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	path string

	// cur is the compaction in flight, nil when there is none. It stays set
	// until the replaced log's handle is closed.
	cur *compaction
	// err is the first background compaction failure. Once set, Append,
	// CompactTo and Close return it.
	err error
	// step, when set, is called between the background steps of a
	// compaction, with no lock held: "staged" before the fsync, "synced"
	// before the swap, "swapped" before the replaced log is closed.
	step func(name string)
}

// compaction is one File compaction past its staging.
type compaction struct {
	tmp  *os.File // the staged checkpoint at <path>.compact
	mark int64    // log offset the checkpoint covers up to
	// swapped closes once the compaction can no longer rename: the new log
	// is in place, or the compaction failed.
	swapped chan struct{}
	// done closes once the compaction is over and the replaced handle is
	// closed.
	done chan struct{}
}

// ErrCompactBusy is returned by File.CompactTo while an earlier compaction
// is still finishing. The call changes nothing; the caller may retry later.
var ErrCompactBusy = errors.New("journal: compaction in flight")

// ErrCompactFailed wraps a background compaction failure, as returned by
// every later Append, CompactTo, WaitCompact and Close. The log it failed
// to replace is left intact.
var ErrCompactFailed = errors.New("journal: background compaction failed")

// OpenFile opens (or creates) a file journal. Any torn or corrupt tail from
// a previous crash is truncated away before the journal accepts appends, so
// recovery and subsequent writes always operate on an intact log. A
// <path>.compact file left by a crash mid-compaction is never read.
func OpenFile(path string) (*File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	valid, err := scanValid(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: truncating torn tail of %s: %w", path, err)
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &File{f: f, w: bufio.NewWriter(f), path: path}, nil
}

// scanValid returns the byte offset of the end of the last intact record.
func scanValid(f *os.File) (int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, err
	}
	r := bufio.NewReader(f)
	var valid int64
	for {
		line, err := r.ReadBytes('\n')
		if err == nil {
			if _, ok := parseFrame(line[:len(line)-1]); ok {
				valid += int64(len(line))
				continue
			}
		} else if err != io.EOF {
			return 0, err
		}
		// Torn (no newline), corrupt, or EOF: stop at the last intact record.
		return valid, nil
	}
}

// Path returns the journal file's path.
func (b *File) Path() string { return b.path }

// usable reports why b cannot take a write: closed, or failed. Called with
// b.mu held.
func (b *File) usable(op string) error {
	if b.err != nil {
		return b.err
	}
	if b.f == nil {
		return fmt.Errorf("journal: %s closed backend", op)
	}
	return nil
}

// lockIdle locks b once no compaction is in flight.
func (b *File) lockIdle() {
	b.mu.Lock()
	for b.cur != nil {
		done := b.cur.done
		b.mu.Unlock()
		<-done
		b.mu.Lock()
	}
}

// Append implements Backend.
func (b *File) Append(frame []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.usable("append to"); err != nil {
		return err
	}
	if _, err := b.w.Write(frame); err != nil {
		return err
	}
	// Flush per append: the OS page cache is our durability domain
	// (process-crash safety), and a partially flushed line is exactly the
	// torn tail OpenFile knows how to discard.
	return b.w.Flush()
}

// ReadAll implements Backend. It waits for a compaction in flight, then
// re-reads the file from the start; the open handle's write position is
// restored afterwards.
func (b *File) ReadAll() ([][]byte, error) {
	b.lockIdle()
	defer b.mu.Unlock()
	if b.f == nil {
		return nil, errors.New("journal: read from closed backend")
	}
	if err := b.w.Flush(); err != nil {
		return nil, err
	}
	pos, err := b.f.Seek(0, io.SeekCurrent)
	if err != nil {
		return nil, err
	}
	if _, err := b.f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	var out [][]byte
	r := bufio.NewReader(b.f)
	var read int64
	for read < pos {
		line, err := r.ReadBytes('\n')
		if err != nil {
			return nil, fmt.Errorf("journal: short read of own log: %w", err)
		}
		read += int64(len(line))
		out = append(out, line)
	}
	if _, err := b.f.Seek(pos, io.SeekStart); err != nil {
		return nil, err
	}
	return out, nil
}

// CompactTo implements Compactor for an open file journal. It replaces
// every record appended before the call with recs, and records appended
// afterwards follow them in the new log. The call only stages recs in
// <path>.compact and returns; a background goroutine then fsyncs the
// checkpoint, carries over the records appended since the call, renames
// the staged file over the log, moves the handle to it, and closes the
// replaced log. Until that close, a further call returns ErrCompactBusy.
func (b *File) CompactTo(recs []Record) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.usable("compact of"); err != nil {
		return err
	}
	if b.cur != nil {
		return ErrCompactBusy
	}
	if err := b.w.Flush(); err != nil {
		return err
	}
	mark, err := b.f.Seek(0, io.SeekCurrent)
	if err != nil {
		return err
	}
	tmp, err := stage(b.path, recs)
	if err != nil {
		return err
	}
	c := &compaction{tmp: tmp, mark: mark, swapped: make(chan struct{}), done: make(chan struct{})}
	b.cur = c
	go b.finish(c)
	return nil
}

// finish runs a staged compaction to its end. Until the rename, a crash
// leaves the complete old log; after it, the checkpoint plus every record
// appended after the mark.
func (b *File) finish(c *compaction) {
	b.pause("staged")
	err := c.tmp.Sync() // the checkpoint is on disk before it can replace history
	b.pause("synced")
	var old *os.File
	if err == nil {
		old, err = b.swap(c)
	}
	if err != nil {
		c.tmp.Close()
		os.Remove(c.tmp.Name())
		b.mu.Lock()
		b.err = fmt.Errorf("%w: %v", ErrCompactFailed, err)
		b.cur = nil
		b.mu.Unlock()
		close(c.swapped)
		close(c.done)
		return
	}
	close(c.swapped)
	b.pause("swapped")
	// Closing the replaced log's last handle frees its blocks, which costs
	// tens of milliseconds on ext4 whatever the file's size. That is why
	// the whole compaction runs off the caller's path. The file is
	// unlinked and its records were carried over, so a close error loses
	// nothing.
	_ = old.Close()
	b.mu.Lock()
	b.cur = nil
	b.mu.Unlock()
	close(c.done)
}

// swap appends the records written since the mark to the staged file,
// renames it over the log and moves the handle to it. It returns the
// replaced log's handle.
func (b *File) swap(c *compaction) (*os.File, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.w.Flush(); err != nil {
		return nil, err
	}
	end, err := b.f.Seek(0, io.SeekCurrent)
	if err != nil {
		return nil, err
	}
	if _, err := io.Copy(c.tmp, io.NewSectionReader(b.f, c.mark, end-c.mark)); err != nil {
		return nil, err
	}
	if err := os.Rename(c.tmp.Name(), b.path); err != nil {
		return nil, err
	}
	old := b.f
	b.f = c.tmp
	b.w.Reset(c.tmp)
	return old, nil
}

func (b *File) pause(step string) {
	if b.step != nil {
		b.step(step)
	}
}

// WaitCompact blocks until no compaction started so far can still rename
// the log, and returns the first background compaction failure, if any.
func (b *File) WaitCompact() error {
	b.mu.Lock()
	c := b.cur
	b.mu.Unlock()
	if c != nil {
		<-c.swapped
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// Close implements Backend. It waits for a compaction in flight and
// returns its failure, if it failed.
func (b *File) Close() error {
	b.lockIdle()
	defer b.mu.Unlock()
	if b.f == nil {
		return nil
	}
	err := b.w.Flush()
	if cerr := b.f.Close(); err == nil {
		err = cerr
	}
	b.f = nil
	if b.err != nil {
		return b.err
	}
	return err
}

// Log is the typed journal the stream service writes: JSON payloads framed
// with content hashes over a Backend.
type Log struct {
	mu sync.Mutex
	b  Backend
	n  int64
}

// NewLog wraps a backend.
func NewLog(b Backend) *Log { return &Log{b: b} }

// Append marshals v and commits one record. The record is the commit point:
// when Append returns nil the record will be visible to every future Replay
// of this backend.
func (l *Log) Append(kind string, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("journal: marshal %s record: %w", kind, err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.b.Append(frame(kind, payload)); err != nil {
		return err
	}
	l.n++
	return nil
}

// Appended returns how many records this Log instance has committed (not
// counting records already present at open).
func (l *Log) Appended() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Replay reads every intact record of a backend in append order and hands
// each to fn. A nil error from every fn call means the full log replayed.
func Replay(b Backend, fn func(Record) error) error {
	frames, err := b.ReadAll()
	if err != nil {
		return err
	}
	for i, fr := range frames {
		if len(fr) == 0 || fr[len(fr)-1] != '\n' {
			return fmt.Errorf("%w: frame %d unterminated", ErrCorrupt, i)
		}
		rec, ok := parseFrame(fr[:len(fr)-1])
		if !ok {
			return fmt.Errorf("%w: frame %d", ErrCorrupt, i)
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

// Compact rewrites a closed file journal to contain only the given records
// (typically one checkpoint plus its tail), bounding log growth. The
// rewrite goes through a temp file + rename so a crash mid-compaction
// leaves either the old or the new log, never a mix.
func Compact(path string, recs []Record) error {
	f, err := stage(path, recs)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil { // compaction replaces history
		f.Close()
		os.Remove(f.Name())
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return err
	}
	return os.Rename(f.Name(), path)
}

// stage writes recs to a fresh <path>.compact, not yet synced, and returns
// it open for further writes.
func stage(path string, recs []Record) (*os.File, error) {
	f, err := os.OpenFile(path+".compact", os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	for _, r := range recs {
		if _, err := f.Write(frame(r.Kind, r.Payload)); err != nil {
			f.Close()
			os.Remove(f.Name())
			return nil, err
		}
	}
	return f, nil
}
