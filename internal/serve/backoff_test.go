package serve

import (
	"net/http"
	"testing"
	"time"
)

func TestBackoffDeterministicAndBounded(t *testing.T) {
	cfg := RetryConfig{Base: 50 * time.Millisecond, Cap: 2 * time.Second, Seed: 42}.withDefaults()
	a := newBackoff(cfg, 0)
	b := newBackoff(cfg, 0)
	for attempt := 0; attempt < 12; attempt++ {
		da := a.delay(attempt, 0)
		db := b.delay(attempt, 0)
		if da != db {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", attempt, da, db)
		}
		// Equal jitter: at least half the exponential term, never above
		// the cap.
		exp := cfg.Base << min(attempt, 20)
		if exp <= 0 || exp > cfg.Cap {
			exp = cfg.Cap
		}
		if da < exp/2 || da > exp {
			t.Errorf("attempt %d: delay %v outside [%v, %v]", attempt, da, exp/2, exp)
		}
	}

	// Different clients (or seeds) get different jitter streams.
	c := newBackoff(cfg, 1)
	same := 0
	for attempt := 4; attempt < 12; attempt++ {
		if a2 := newBackoff(cfg, 0); a2.delay(attempt, 0) == c.delay(attempt, 0) {
			same++
		}
	}
	if same == 8 {
		t.Error("client 0 and client 1 produced identical jitter streams")
	}
}

func TestBackoffHonorsRetryAfter(t *testing.T) {
	cfg := RetryConfig{Base: 10 * time.Millisecond, Cap: 40 * time.Millisecond}.withDefaults()
	bo := newBackoff(cfg, 0)
	if d := bo.delay(0, 3*time.Second); d < 3*time.Second {
		t.Errorf("delay %v below the server's Retry-After floor of 3s", d)
	}
	// Flat mode (no exponential config) also honors the floor.
	flat := newBackoff(RetryConfig{}, 0)
	if d := flat.delay(0, time.Second); d != time.Second {
		t.Errorf("flat delay = %v, want the 1s Retry-After floor", d)
	}
	if d := flat.delay(0, 0); d != 50*time.Millisecond {
		t.Errorf("flat delay = %v, want the historical 50ms", d)
	}
}

func TestParseRetryAfter(t *testing.T) {
	mk := func(v string) *http.Response {
		h := http.Header{}
		if v != "" {
			h.Set("Retry-After", v)
		}
		return &http.Response{Header: h}
	}
	if d := parseRetryAfter(mk("2")); d != 2*time.Second {
		t.Errorf("Retry-After 2 = %v", d)
	}
	for _, v := range []string{"", "soon", "-1"} {
		if d := parseRetryAfter(mk(v)); d != 0 {
			t.Errorf("Retry-After %q = %v, want 0", v, d)
		}
	}
	if d := parseRetryAfter(nil); d != 0 {
		t.Errorf("nil response = %v, want 0", d)
	}
}

// TestParseRetryAfterHTTPDate covers the second RFC 9110 form plus the
// clamping rules: dates become a delta against the injected clock,
// values in the past collapse to 0, and absurd waits (either form) are
// capped so a misbehaving proxy cannot park a client for hours.
func TestParseRetryAfterHTTPDate(t *testing.T) {
	mk := func(v string) *http.Response {
		h := http.Header{}
		h.Set("Retry-After", v)
		return &http.Response{Header: h}
	}
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)

	if d := parseRetryAfterAt(mk(now.Add(3*time.Second).Format(http.TimeFormat)), now); d != 3*time.Second {
		t.Errorf("HTTP-date 3s ahead = %v, want 3s", d)
	}
	// RFC 850 and ANSI C asctime are the other two formats http.ParseTime
	// accepts; servers in the wild still emit them.
	if d := parseRetryAfterAt(mk(now.Add(2*time.Second).Format(time.RFC850)), now); d != 2*time.Second {
		t.Errorf("RFC 850 date = %v, want 2s", d)
	}
	if d := parseRetryAfterAt(mk(now.Add(-time.Minute).Format(http.TimeFormat)), now); d != 0 {
		t.Errorf("date in the past = %v, want 0", d)
	}
	if d := parseRetryAfterAt(mk(now.Add(48*time.Hour).Format(http.TimeFormat)), now); d != retryAfterCap {
		t.Errorf("date 48h ahead = %v, want the %v cap", d, retryAfterCap)
	}
	if d := parseRetryAfterAt(mk("99999999"), now); d != retryAfterCap {
		t.Errorf("absurd delta-seconds = %v, want the %v cap", d, retryAfterCap)
	}
	if d := parseRetryAfterAt(mk(" 4 "), now); d != 4*time.Second {
		t.Errorf("padded delta-seconds = %v, want 4s", d)
	}
	if d := parseRetryAfterAt(mk("Wed, 99 Foo 2026 99:99:99 GMT"), now); d != 0 {
		t.Errorf("malformed date = %v, want 0", d)
	}
}
