package serve_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cas"
	"repro/internal/serve"
)

var farmBody = []byte(`{"sources":["module m;\nfunc main() int { return 40 + 2; }"]}`)

func farmServer(t *testing.T, dir, owner string) (*serve.Server, *httptest.Server) {
	t.Helper()
	store, err := cas.Open(dir, cas.Options{Owner: owner, LeaseTTL: 2 * time.Second, PollInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s := serve.New(serve.Config{Workers: 1, Store: store})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func postCompile(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/compile", "application/json", bytes.NewReader(farmBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	return resp, data
}

func counter(s *serve.Server, name string) int64 {
	for _, c := range s.Registry().Counters() {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// TestFarmResponseReplay: the second identical request to one daemon is
// served from the persistent store — byte-identical, marked with
// X-Hlod-Cache: hit, and without a second compile.
func TestFarmResponseReplay(t *testing.T) {
	s, ts := farmServer(t, t.TempDir(), "a")
	r1, body1 := postCompile(t, ts.URL)
	if r1.Header.Get("X-Hlod-Cache") == "hit" {
		t.Fatal("first request cannot be a cache hit")
	}
	r2, body2 := postCompile(t, ts.URL)
	if r2.Header.Get("X-Hlod-Cache") != "hit" {
		t.Fatal("second request missing X-Hlod-Cache: hit")
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("replayed response is not byte-identical")
	}
	if got := counter(s, "serve.cas.resp.fill"); got != 1 {
		t.Fatalf("fills = %d, want 1", got)
	}
	if got := counter(s, "serve.cas.resp.hit"); got != 1 {
		t.Fatalf("hits = %d, want 1", got)
	}
}

// TestCompileRejectsUnknownOption: a request field the daemon does not
// define is a 400 naming the field, never compiled under the default
// and cached — a misspelled option on /compile and /train, and the
// retired decision-policy option.
func TestCompileRejectsUnknownOption(t *testing.T) {
	s, ts := farmServer(t, t.TempDir(), "a")
	src := `"sources":["module m;\nfunc main() int { return 0; }"]`
	for _, c := range []struct{ endpoint, body, field string }{
		{"/compile", `{` + src + `,"options":{"budjet":50}}`, "budjet"},
		{"/train", `{` + src + `,"train_input":[1]}`, "train_input"},
		{"/compile", `{` + src + `,"options":{"policy":"priority"}}`, "policy"},
	} {
		resp, err := http.Post(ts.URL+c.endpoint, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), c.field) {
			t.Errorf("POST %s %s: status %d %q, want 400 naming %q", c.endpoint, c.body, resp.StatusCode, data, c.field)
		}
	}
	if got := counter(s, "serve.cas.resp.fill"); got != 0 {
		t.Fatalf("fills = %d, want 0: a rejected request was cached", got)
	}
}

// TestFarmCrossDaemonDedup: daemon B must serve a request daemon A
// already compiled straight from the shared store, byte-identically.
func TestFarmCrossDaemonDedup(t *testing.T) {
	dir := t.TempDir()
	sa, tsa := farmServer(t, dir, "a")
	sb, tsb := farmServer(t, dir, "b")
	_, bodyA := postCompile(t, tsa.URL)
	respB, bodyB := postCompile(t, tsb.URL)
	if respB.Header.Get("X-Hlod-Cache") != "hit" {
		t.Fatal("daemon B recompiled a key daemon A already filled")
	}
	if !bytes.Equal(bodyA, bodyB) {
		t.Fatal("daemons disagree on the response bytes")
	}
	if fills := counter(sa, "serve.cas.resp.fill") + counter(sb, "serve.cas.resp.fill"); fills != 1 {
		t.Fatalf("total fills = %d, want 1", fills)
	}
}

// TestFarmWarmStartAfterReboot is the acceptance criterion at the serve
// layer: a rebooted daemon (fresh process state, same cache directory)
// serves its first /compile from the store without recompiling,
// verified via the cas hit counters.
func TestFarmWarmStartAfterReboot(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := farmServer(t, dir, "boot1")
	_, body1 := postCompile(t, ts1.URL)
	ts1.Close()

	s2, ts2 := farmServer(t, dir, "boot2") // reboot: everything in-memory is gone
	resp, body2 := postCompile(t, ts2.URL)
	if resp.Header.Get("X-Hlod-Cache") != "hit" {
		t.Fatal("rebooted daemon recompiled its first request")
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("warm-start response differs from the original")
	}
	if hits := s2.Store().Counters()["hits"]; hits == 0 {
		t.Fatal("store hit counter did not move on warm start")
	}
	if fills := counter(s2, "serve.cas.resp.fill"); fills != 0 {
		t.Fatalf("rebooted daemon filled %d entries for a cached key", fills)
	}
}

// TestFarmConcurrentDaemonsSingleFill: many clients race the same cold
// key against two daemons; the lease protocol must allow exactly one
// compile across both processes, and every client gets the same bytes.
func TestFarmConcurrentDaemonsSingleFill(t *testing.T) {
	dir := t.TempDir()
	sa, tsa := farmServer(t, dir, "a")
	sb, tsb := farmServer(t, dir, "b")
	urls := []string{tsa.URL, tsb.URL}

	var wg sync.WaitGroup
	bodies := make([][]byte, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(urls[i%2]+"/compile", "application/json", bytes.NewReader(farmBody))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				bodies[i], _ = io.ReadAll(resp.Body)
			}
		}(i)
	}
	wg.Wait()

	if fills := counter(sa, "serve.cas.resp.fill") + counter(sb, "serve.cas.resp.fill"); fills != 1 {
		t.Fatalf("total fills across the farm = %d, want 1", fills)
	}
	var want []byte
	for _, b := range bodies {
		if b != nil {
			want = b
			break
		}
	}
	if want == nil {
		t.Fatal("no request succeeded")
	}
	for i, b := range bodies {
		if b != nil && !bytes.Equal(b, want) {
			t.Fatalf("client %d got different bytes", i)
		}
	}
}

// TestFarmStoreFaults damages the shared store under one daemon per case
// and checks the store's failure handling end to end: every answer is a
// 200 byte-identical to a store-less daemon's answer for the same body,
// the damage is counted, and the daemon recovers its use of the store.
func TestFarmStoreFaults(t *testing.T) {
	baseline := runtime.NumGoroutine()
	oracle := serve.New(serve.Config{Workers: 1})
	want := func(t *testing.T, endpoint string, body []byte) []byte {
		t.Helper()
		rr := httptest.NewRecorder()
		oracle.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/"+endpoint, bytes.NewReader(body)))
		if rr.Code != http.StatusOK {
			t.Fatalf("oracle %s: status %d: %s", endpoint, rr.Code, rr.Body)
		}
		return rr.Body.Bytes()
	}
	// post answers body on the daemon, requires the oracle's bytes, and
	// reports whether the answer was replayed from the store.
	post := func(t *testing.T, url, endpoint string, body []byte) (hit bool) {
		t.Helper()
		resp, err := http.Post(url+"/"+endpoint, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", endpoint, resp.StatusCode, data)
		}
		if !bytes.Equal(data, want(t, endpoint, body)) {
			t.Fatalf("%s answer differs from the store-less daemon's", endpoint)
		}
		return resp.Header.Get("X-Hlod-Cache") == "hit"
	}
	respPath := func(dir, endpoint string, body []byte) string {
		key := serve.ResponseCacheKey(endpoint, body)
		return filepath.Join(dir, "objects", "resp", key[:2], key)
	}

	damaged := []struct {
		name     string
		endpoint string
		damage   func(path string) error
	}{
		{"bit-flipped entry", "compile", func(path string) error {
			raw, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			raw[len(raw)-1] ^= 0x40
			return os.WriteFile(path, raw, 0o644)
		}},
		{"truncated entry", "run", func(path string) error {
			info, err := os.Stat(path)
			if err != nil {
				return err
			}
			return os.Truncate(path, info.Size()/2)
		}},
	}
	for _, tc := range damaged {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, ts := farmServer(t, dir, "a")
			post(t, ts.URL, tc.endpoint, farmBody)
			if err := tc.damage(respPath(dir, tc.endpoint, farmBody)); err != nil {
				t.Fatal(err)
			}
			if post(t, ts.URL, tc.endpoint, farmBody) {
				t.Fatal("damaged entry replayed as a hit")
			}
			if q := s.Store().Counters()["quarantines"]; q != 1 {
				t.Fatalf("quarantines = %d, want 1", q)
			}
			if !post(t, ts.URL, tc.endpoint, farmBody) {
				t.Fatal("refilled entry not served from the store")
			}
		})
	}

	t.Run("wedged objects/resp", func(t *testing.T) {
		dir := t.TempDir()
		s, ts := farmServer(t, dir, "a")
		// A regular file where the shard directory belongs: every read and
		// write under it fails with ENOTDIR, as on a broken disk.
		wedge := filepath.Join(dir, "objects", "resp")
		if err := os.WriteFile(wedge, []byte("wedge\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		post(t, ts.URL, "compile", farmBody)
		if got := counter(s, "serve.cas.degraded"); got != 1 {
			t.Fatalf("serve.cas.degraded = %d, want 1", got)
		}
		if err := os.Remove(wedge); err != nil {
			t.Fatal(err)
		}
		if post(t, ts.URL, "compile", farmBody) {
			t.Fatal("nothing was stored while wedged, yet the answer is a hit")
		}
		if got := counter(s, "serve.cas.resp.fill"); got != 1 {
			t.Fatalf("fills after unwedging = %d, want 1", got)
		}
	})

	t.Run("orphaned fill lease", func(t *testing.T) {
		dir := t.TempDir()
		s, ts := farmServer(t, dir, "a")
		// A leader that acquires the fill lease and dies: no heartbeat,
		// no Put, no Release.
		ghost, err := cas.Open(dir, cas.Options{Owner: "ghost", LeaseTTL: 200 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ghost.Acquire("resp", serve.ResponseCacheKey("compile", farmBody)); err != nil {
			t.Fatal(err)
		}
		post(t, ts.URL, "compile", farmBody)
		cs := s.Store().Counters()
		if cs["lease_waits"] != 1 || cs["lease_takeovers"] != 1 {
			t.Fatalf("lease_waits = %d, lease_takeovers = %d, want 1 and 1", cs["lease_waits"], cs["lease_takeovers"])
		}
		if got := counter(s, "serve.cas.resp.fill"); got != 1 {
			t.Fatalf("fills after takeover = %d, want 1", got)
		}
	})

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after the cases, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
