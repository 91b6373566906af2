package serve_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
)

func TestRendezvousOrderStableAndBalanced(t *testing.T) {
	backends := []string{"http://a", "http://b", "http://c"}
	if got := serve.RendezvousOrder("k1", backends); len(got) != 3 {
		t.Fatalf("order has %d entries, want 3", len(got))
	}
	// Deterministic: same key, same order, regardless of input slice order.
	a := serve.RendezvousOrder("k1", backends)
	b := serve.RendezvousOrder("k1", []string{"http://c", "http://a", "http://b"})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order depends on backend list order: %v vs %v", a, b)
		}
	}
	// Balanced-ish: over many keys every backend wins some.
	wins := map[string]int{}
	for i := 0; i < 300; i++ {
		wins[serve.RendezvousOrder(fmt.Sprintf("key-%d", i), backends)[0]]++
	}
	for _, be := range backends {
		if wins[be] == 0 {
			t.Fatalf("backend %s never ranked first across 300 keys: %v", be, wins)
		}
	}
	// Minimal disruption: dropping a backend must not remap keys it did
	// not own.
	two := []string{"http://a", "http://b"}
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("key-%d", i)
		first := serve.RendezvousOrder(key, backends)[0]
		if first == "http://c" {
			continue
		}
		if got := serve.RendezvousOrder(key, two)[0]; got != first {
			t.Fatalf("key %q moved from %s to %s when an unrelated backend left", key, first, got)
		}
	}
}

// TestRunLoadBackendsShard: client-side rendezvous sharding sends each
// body to exactly one backend, and the matrix spreads across both.
func TestRunLoadBackendsShard(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]map[string]bool{} // body -> set of backends
	mkBackend := func(name string) *httptest.Server {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, _ := io.ReadAll(r.Body)
			mu.Lock()
			if seen[string(body)] == nil {
				seen[string(body)] = map[string]bool{}
			}
			seen[string(body)][name] = true
			mu.Unlock()
			w.Write([]byte(`{}`))
		}))
		t.Cleanup(ts.Close)
		return ts
	}
	a, b := mkBackend("a"), mkBackend("b")
	rep, err := serve.RunLoad(context.Background(), serve.LoadConfig{
		Backends: []string{a.URL, b.URL},
		Clients:  2,
		Duration: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 || !rep.Healthy() {
		t.Fatalf("bad sharded run: %+v", rep)
	}
	backends := map[string]bool{}
	mu.Lock() // a shed request's handler may still be mid-write server-side
	defer mu.Unlock()
	for body, bes := range seen {
		if len(bes) != 1 {
			t.Fatalf("body %.40q landed on %d backends, want exactly 1", body, len(bes))
		}
		for be := range bes {
			backends[be] = true
		}
	}
	if len(backends) != 2 {
		t.Fatalf("only %d backend(s) saw traffic across the 12-body matrix", len(backends))
	}
}
