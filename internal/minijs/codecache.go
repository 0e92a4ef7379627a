package minijs

// codecache.go caches compiled programs by script content hash through
// cachex. A study runs every ad script twice — once in the crawler's strict
// browser, once in the honeyclient's tolerant one — so the cache keeps ONE
// entry per source serving both modes: the tolerant parse, compiled, plus
// the strict parser's verdict, computed only when the tolerant parse
// reported diagnostics. A clean tolerant parse IS the strict parse
// (FuzzTolerantCleanParseIsStrict pins the law), so strict callers share its
// program. Deterministic outcomes — a compiled program, a recovered partial
// parse, a strict-mode syntax error — are cached (the error negatively, so a
// broken script is rejected once, not re-parsed per page). A compile
// truncated by context cancellation is NOT deterministic output: it
// propagates as a plain error, which cachex.GetOrLoad delivers without
// storing — the same reproducibility gate the honeyclient applies with
// ErrSkipStore.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"io"

	"madave/internal/cachex"
	"madave/internal/telemetry"
)

// DefaultCodeCacheEntries bounds the number of distinct scripts kept
// compiled. In both the streaming service and the batch study the
// crawler's and the honeyclient's loads of one script are at most a few
// queue slots apart, which 1k entries (64 per shard) cover. Only a caller
// that crawls everything before classifying rescans more distinct scripts
// than this, which cannot hit at any size short of the corpus; every
// retained program counts twice against the GC's heap target, so a bigger
// cache would only raise peak memory (see DESIGN.md §13).
const DefaultCodeCacheEntries = 1 << 10

// cachedScript is the one cache entry per source.
type cachedScript struct {
	// prog is the tolerant parse (compiled, or left for the tree-walker
	// when the compiler rejects its shape) and errs its recovery
	// diagnostics.
	prog *Program
	errs []*SyntaxError
	// strictErr is the strict parser's verdict, computed only when errs is
	// non-empty. With no diagnostics prog is the strict program too.
	strictErr error
}

// CodeCache maps script source hashes to compiled programs. Safe for
// concurrent use; a cached *Program is read-only after publication and may
// be executed by many interpreters at once.
type CodeCache struct {
	c        *cachex.Cache[[sha256.Size]byte, *cachedScript]
	compiles *telemetry.Counter
	fallback *telemetry.Counter
}

// NewCodeCache builds a code cache with the given capacity (0 =
// DefaultCodeCacheEntries). Cache hit/miss counters land in tel under
// cache="minijs_code"; compile counts under minijs_compile_total.
func NewCodeCache(capacity int, tel *telemetry.Set) *CodeCache {
	if capacity <= 0 {
		capacity = DefaultCodeCacheEntries
	}
	cc := &CodeCache{
		// The key is already a uniform hash, so its first word picks the shard.
		c: cachex.NewWithHasher[[sha256.Size]byte, *cachedScript](cachex.Config{
			Capacity: capacity,
			Name:     "minijs_code",
			Tel:      tel,
		}, func(k [sha256.Size]byte) uint64 { return binary.LittleEndian.Uint64(k[:8]) }),
	}
	if tel != nil {
		cc.compiles = tel.Counter("minijs_compile_total")
		cc.fallback = tel.Counter("minijs_compile_fallback_total")
	}
	return cc
}

// Load returns the compiled program for src, parsing and compiling on the
// first sight of a script hash in either mode. In tolerant mode the
// recovered parse's diagnostics are returned alongside the (never nil)
// program; in strict mode a syntax error is returned as err. ctx bounds
// compilation: a cancelled compile returns ctx's error and caches nothing.
func (cc *CodeCache) Load(ctx context.Context, src string, tolerant bool) (*Program, []*SyntaxError, error) {
	// Hash the source without the []byte(src) copy.
	h := sha256.New()
	io.WriteString(h, src)
	var key [sha256.Size]byte
	h.Sum(key[:0])
	cs, err := cc.c.GetOrLoad(key, func() (*cachedScript, error) {
		return cc.compile(ctx, src)
	})
	switch {
	case err != nil:
		return nil, nil, err
	case tolerant:
		return cs.prog, cs.errs, nil
	case cs.strictErr != nil:
		return nil, nil, cs.strictErr
	default:
		return cs.prog, nil, nil
	}
}

func (cc *CodeCache) compile(ctx context.Context, src string) (*cachedScript, error) {
	cs := &cachedScript{}
	cs.prog, cs.errs = ParseTolerant(src)
	if cc.compiles != nil {
		cc.compiles.Inc()
	}
	if cerr := CompileProgram(ctx, cs.prog); cerr != nil {
		if ctx != nil && ctx.Err() != nil {
			// Deadline-truncated: the partial program must never be
			// published. A plain error makes GetOrLoad deliver without
			// storing, so a later caller retries with a live context.
			return nil, cerr
		}
		// Deterministic compiler rejection (AST shape outside the bytecode
		// subset): cache the uncompiled program; RunProgram falls back to
		// the tree-walker, which handles everything the parser accepts.
		if cc.fallback != nil {
			cc.fallback.Inc()
		}
	}
	if len(cs.errs) > 0 {
		// The strict verdict is a pure function of the source too, cached
		// so a strict caller rejects the script without re-parsing. By
		// FuzzParseRecover's superset law it is always a syntax error.
		_, cs.strictErr = Parse(src)
	}
	return cs, nil
}

// Stats snapshots the underlying cache counters.
func (cc *CodeCache) Stats() cachex.Stats { return cc.c.Stats() }
