package minijs

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// bigScript is large enough that the compiler's periodic ctx check (every
// 256 emits) fires at least once mid-lowering.
func bigScript() string {
	var b strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&b, "var v%d = %d + %d;\n", i, i, i*2)
	}
	b.WriteString("v199;")
	return b.String()
}

// TestCodeCacheCancelledCompileNotStored is the ErrSkipStore-style gate for
// the code cache: a compile truncated by context cancellation must deliver
// an error and leave nothing behind, and a retry with a live context must
// compile and store normally.
func TestCodeCacheCancelledCompileNotStored(t *testing.T) {
	cc := NewCodeCache(16, nil)
	src := bigScript()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	prog, errs, err := cc.Load(ctx, src, false)
	if err == nil {
		t.Fatalf("cancelled compile returned no error (prog=%v errs=%v)", prog != nil, errs)
	}
	if !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("cancelled compile error = %q, want it to wrap %q", err, context.Canceled)
	}
	if st := cc.Stats(); st.Stores != 0 {
		t.Fatalf("cancelled compile stored an entry: stats %+v", st)
	}
	if n := cc.c.Len(); n != 0 {
		t.Fatalf("cancelled compile left %d cache entries", n)
	}

	// Retry with a live context: compiles, runs, and stores.
	prog, errs, err = cc.Load(context.Background(), src, false)
	if err != nil || len(errs) != 0 {
		t.Fatalf("retry Load failed: err=%v errs=%v", err, errs)
	}
	if prog.code == nil {
		t.Fatalf("retry did not compile the program")
	}
	if st := cc.Stats(); st.Stores != 1 {
		t.Fatalf("retry should store exactly one entry: stats %+v", st)
	}
	in := New()
	v, err := in.RunProgram(prog)
	if err != nil {
		t.Fatalf("RunProgram: %v", err)
	}
	if got := ToString(v); got != "597" {
		t.Fatalf("cached program result = %q, want 597", got)
	}

	// Third load is a pure hit.
	before := cc.Stats().Hits
	if _, _, err := cc.Load(context.Background(), src, false); err != nil {
		t.Fatalf("hit Load failed: %v", err)
	}
	if after := cc.Stats().Hits; after != before+1 {
		t.Fatalf("expected a cache hit (hits %d -> %d)", before, after)
	}
}

// TestCodeCacheNegativeCachesSyntaxErrors checks that a strict-mode syntax
// error — a pure function of the source — is cached as a value, so the same
// broken script is rejected without a second parse.
func TestCodeCacheNegativeCachesSyntaxErrors(t *testing.T) {
	cc := NewCodeCache(16, nil)
	src := "var = ;"
	prog, _, err1 := cc.Load(context.Background(), src, false)
	if err1 == nil || prog != nil {
		t.Fatalf("broken script should fail strict load, got prog=%v err=%v", prog, err1)
	}
	if st := cc.Stats(); st.Stores != 1 {
		t.Fatalf("syntax error should be negatively cached: stats %+v", st)
	}
	_, _, err2 := cc.Load(context.Background(), src, false)
	if err2 == nil || err2.Error() != err1.Error() {
		t.Fatalf("cached error mismatch: %v vs %v", err1, err2)
	}

	// The same entry serves tolerant mode: the recovered program with its
	// diagnostics, without another parse.
	tprog, terrs, terr := cc.Load(context.Background(), src, true)
	if terr != nil {
		t.Fatalf("tolerant load failed: %v", terr)
	}
	if tprog == nil || len(terrs) == 0 {
		t.Fatalf("tolerant load: prog=%v errs=%d, want program plus diagnostics", tprog != nil, len(terrs))
	}
	if st := cc.Stats(); st.Stores != 1 || st.Hits != 2 {
		t.Fatalf("strict and tolerant loads should share one entry: stats %+v", st)
	}
}

// TestCodeCacheOneEntryServesBothModes checks the study-wide sharing the
// cache exists for: the crawler's strict load compiles a clean script once,
// and the honeyclient's tolerant load of the same source is a hit on the
// same program — and the reverse order behaves the same.
func TestCodeCacheOneEntryServesBothModes(t *testing.T) {
	for _, strictFirst := range []bool{true, false} {
		cc := NewCodeCache(16, nil)
		src := "var a = 1; document.write('<img src=x>' + a);"
		p1, e1, err1 := cc.Load(context.Background(), src, !strictFirst)
		p2, e2, err2 := cc.Load(context.Background(), src, strictFirst)
		if err1 != nil || err2 != nil || len(e1) != 0 || len(e2) != 0 {
			t.Fatalf("clean script: errs %v %v, diagnostics %d %d", err1, err2, len(e1), len(e2))
		}
		if p1 != p2 || p1.code == nil {
			t.Fatalf("strict-first=%v: modes got different programs (or no bytecode)", strictFirst)
		}
		if st := cc.Stats(); st.Stores != 1 || st.Hits != 1 {
			t.Fatalf("strict-first=%v: want one store and one hit, stats %+v", strictFirst, st)
		}
		want, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := CompileProgram(nil, want); err != nil {
			t.Fatal(err)
		}
		if got := Disassemble(p1); got != Disassemble(want) {
			t.Fatalf("cached program differs from a strict parse:\n%s\nvs\n%s", got, Disassemble(want))
		}
	}
}

// TestCodeCacheTolerantDeterministic pins that two tolerant loads of the
// same broken source return the identical program object (cache hit) and
// that the compiled artifact is stable.
func TestCodeCacheTolerantDeterministic(t *testing.T) {
	cc := NewCodeCache(16, nil)
	src := "var a = 1; if (a { broken; } fine = a + 1;"
	p1, e1, err := cc.Load(context.Background(), src, true)
	if err != nil {
		t.Fatalf("load 1: %v", err)
	}
	p2, e2, err := cc.Load(context.Background(), src, true)
	if err != nil {
		t.Fatalf("load 2: %v", err)
	}
	if p1 != p2 {
		t.Fatalf("tolerant reload did not hit the cache")
	}
	if len(e1) != len(e2) {
		t.Fatalf("diagnostic count changed between loads: %d vs %d", len(e1), len(e2))
	}
	if p1.code == nil {
		t.Fatalf("recovered program should compile to bytecode")
	}
}
