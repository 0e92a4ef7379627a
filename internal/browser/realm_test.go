package browser

import (
	"context"
	"strings"
	"testing"

	"madave/internal/minijs"
	"madave/internal/stats"
)

// The host realm is built on demand: each frame's document, location,
// top/parent, window/self and Math.random come into being the first time a
// script reads them. These tests pin that doing so is unobservable — every
// identity, shadowing rule and random stream matches a realm installed up
// front.

// realmWrite runs one inline script in an offline frame at url and returns
// what it wrote into a <p>.
func realmWrite(t *testing.T, b *Browser, url, script string) string {
	t.Helper()
	page := b.LoadHTML(`<html><body><script>`+script+`</script></body></html>`, url)
	if len(page.Errors) > 0 {
		t.Fatalf("script errors: %v", page.Errors)
	}
	p := page.Doc.FindFirst("p")
	if p == nil {
		t.Fatalf("script wrote no <p>: %s", page.HTML())
	}
	return p.InnerText()
}

func TestRealmIdentities(t *testing.T) {
	b, _ := newBrowser(testWorld(), UserProfile())
	// Each script reaches the objects in a different order first, so every
	// builder is exercised both as the first path and as a later one.
	scripts := []string{
		`var r = [window.document === document, parent === top, self === window, window.location === location, window.top === top];`,
		`var r = [document === window.document, top === parent, window === self, location === window.location, top === window.top];`,
		`var r = [self.document === document, parent === window.top, window === self, location === self.location, top === parent];`,
	}
	for _, s := range scripts {
		got := realmWrite(t, b, "http://ids.example.com/", s+`document.write("<p>" + r.join(",") + "</p>");`)
		if got != "true,true,true,true,true" {
			t.Errorf("identities = %s for %s", got, s)
		}
	}
}

func TestRealmShadowingBeforeFirstUse(t *testing.T) {
	b, _ := newBrowser(testWorld(), UserProfile())
	// Assigning a host global before reading it shadows it, exactly as
	// overwriting an installed binding would; window still reaches the real
	// document.
	got := realmWrite(t, b, "http://shadow.example.com/",
		`document = 1; window.document.write("<p>" + typeof document + ":" + document + ":" + typeof window.document.write + "</p>");`)
	if got != "number:1:function" {
		t.Errorf("document = 1 before use: %s", got)
	}
	// `var Math;` before first use declares an undefined global, as it
	// did when Math was predefined.
	got = realmWrite(t, b, "http://shadow.example.com/",
		`var Math; document.write("<p>" + typeof Math + "</p>");`)
	if got != "undefined" {
		t.Errorf("var Math before use: typeof Math = %s", got)
	}
	// A function-local declaration shadows only inside the function.
	got = realmWrite(t, b, "http://shadow.example.com/",
		`function f() { var document = 2; return document; } var v = f(); document.write("<p>" + v + ":" + typeof document + "</p>");`)
	if got != "2:object" {
		t.Errorf("local shadowing: %s", got)
	}
}

func TestRealmTypeofAndCookieTrap(t *testing.T) {
	b, _ := newBrowser(testWorld(), UserProfile())
	got := realmWrite(t, b, "http://types.example.com/",
		`document.write("<p>" + [typeof navigator, typeof screen, typeof setTimeout, typeof clearTimeout, typeof Date, typeof Math, typeof notAGlobal, typeof parseInt].join(",") + "</p>");`)
	if want := "object,object,function,function,function,object,undefined,function"; got != want {
		t.Errorf("typeof host globals = %s, want %s", got, want)
	}
	// The cookie trap works through either path to the document, and the
	// jar is the browser's, shared across frames.
	got = realmWrite(t, b, "http://types.example.com/",
		`window.document.cookie = "cap=1"; document.cookie = "seg=news"; document.write("<p>" + document.cookie + "</p>");`)
	if got != "cap=1; seg=news" {
		t.Errorf("cookie readback = %s", got)
	}
	got = realmWrite(t, b, "http://www.types.example.com/other", `document.write("<p>" + self.document.cookie + "</p>");`)
	if got != "cap=1; seg=news" {
		t.Errorf("cookie jar not shared by a later frame of the same site: %s", got)
	}
}

// TestRealmMathRandomStream pins the per-frame Math.random sequence: the
// browser RNG forked by "mathrandom:"+document URL, whenever Math is first
// touched, and unaffected by the builtins Math keeps.
func TestRealmMathRandomStream(t *testing.T) {
	b, _ := newBrowser(testWorld(), UserProfile())
	want := func(url string) string {
		rng := b.RNG.Fork("mathrandom:" + url)
		var out []string
		for i := 0; i < 3; i++ {
			out = append(out, minijs.ToString(minijs.Num(rng.Float64())))
		}
		return strings.Join(out, ",")
	}
	const draw = `var r = [Math.random(), Math.random(), Math.random()];`
	const emit = `document.write("<p>" + r.join(",") + "</p>");`
	for _, tc := range []struct{ url, script string }{
		{"http://rand.example.com/a", draw + emit},
		{"http://rand.example.com/b", draw + emit},
		// Math read late, after other host objects were built.
		{"http://rand.example.com/a", `var w = window.location.href + navigator.userAgent + Math.floor(2.5);` + draw + emit},
	} {
		if got := realmWrite(t, b, tc.url, tc.script); got != want(tc.url) {
			t.Errorf("%s: Math.random stream %s, want %s", tc.url, got, want(tc.url))
		}
	}
	// The fork is a pure function of the browser seed and URL.
	b2, _ := newBrowser(testWorld(), UserProfile())
	b2.RNG = stats.NewRNG(0xB40153)
	if got := realmWrite(t, b2, "http://rand.example.com/a", draw+emit); got != want("http://rand.example.com/a") {
		t.Errorf("same seed and URL, different stream: %s", got)
	}
}

// TestRealmBuildsOnlyWhatScriptsTouch checks the point of the lazy realm: a
// document.write-only creative builds the document object and nothing else.
func TestRealmBuildsOnlyWhatScriptsTouch(t *testing.T) {
	b, _ := newBrowser(testWorld(), UserProfile())
	page := &Page{URL: "http://lazy.example.com/", FinalURL: "http://lazy.example.com/", FrameID: rootFrameID}
	ctx := b.newScriptCtx(context.Background(), page, false)
	ctx.runScript(ctx.in, `document.write("<p>hi</p>");`, "script: ")
	if ctx.doc == nil {
		t.Fatal("document was not built")
	}
	if ctx.win != nil || ctx.loc != nil || ctx.top != nil || b.navObj != nil || b.screenObj != nil {
		t.Errorf("document.write-only script built more of the realm: window %v, location %v, top %v, navigator %v, screen %v",
			ctx.win != nil, ctx.loc != nil, ctx.top != nil, b.navObj != nil, b.screenObj != nil)
	}
	if _, ok := ctx.in.Global.Lookup("Math"); !ok {
		t.Fatal("Math did not resolve")
	}
	ctx.runScript(ctx.in, `window.x = 1;`, "script: ")
	if ctx.win == nil || ctx.top == nil || ctx.loc != nil {
		t.Errorf("window should build its document and top, not location: window %v, top %v, location %v",
			ctx.win != nil, ctx.top != nil, ctx.loc != nil)
	}
}
