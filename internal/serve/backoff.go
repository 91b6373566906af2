package serve

import (
	"net/http"
	"strconv"
	"strings"
	"time"
)

// RetryConfig tunes how load-generator clients react to backpressure
// (429) and transport failures. The zero value means the historical
// behavior: retry forever with a flat 50ms pause.
type RetryConfig struct {
	// Retries is the per-request retry budget: how many consecutive
	// retryable failures a client absorbs for one body before dropping
	// it and moving on. 0 means unlimited.
	Retries int
	// Base is the first backoff delay (default 50ms when Cap is set).
	Base time.Duration
	// Cap bounds the exponential growth (default 2s when Base is set).
	// Base == Cap == 0 disables exponential backoff (flat 50ms).
	Cap time.Duration
	// Seed makes the jitter deterministic; each client derives its own
	// stream from Seed and its index.
	Seed int64
}

func (c RetryConfig) withDefaults() RetryConfig {
	if c.Base <= 0 && c.Cap > 0 {
		c.Base = 50 * time.Millisecond
	}
	if c.Cap <= 0 && c.Base > 0 {
		c.Cap = 2 * time.Second
	}
	return c
}

// backoff computes jittered exponential retry delays for one client.
// The jitter stream is a seeded splitmix64, so a load run with a fixed
// RetryConfig.Seed replays the same delay schedule.
type backoff struct {
	cfg RetryConfig
	rng uint64
}

func newBackoff(cfg RetryConfig, client int) *backoff {
	return &backoff{cfg: cfg, rng: uint64(cfg.Seed)*0x9e3779b97f4a7c15 + uint64(client) + 1}
}

func (b *backoff) next() uint64 {
	b.rng += 0x9e3779b97f4a7c15
	z := b.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// delay returns the wait before retry number attempt (0-based),
// honoring a server-provided Retry-After floor: the exponential term is
// base·2^attempt capped at Cap, then "equal jitter" keeps at least half
// of it while desynchronizing clients, and the result is never below
// what the server asked for.
func (b *backoff) delay(attempt int, retryAfter time.Duration) time.Duration {
	if b.cfg.Base <= 0 {
		// Historical flat pause, still floored by Retry-After.
		return max(50*time.Millisecond, retryAfter)
	}
	d := b.cfg.Base << min(attempt, 20)
	if d <= 0 || d > b.cfg.Cap {
		d = b.cfg.Cap
	}
	half := d / 2
	if half > 0 {
		d = half + time.Duration(b.next()%uint64(half))
	}
	return max(d, retryAfter)
}

// retryAfterCap bounds how long a server-provided Retry-After can stall
// a client: a server answering with an absurd delta (or a date far in
// the future) must not park the load generator for hours.
const retryAfterCap = 5 * time.Minute

// parseRetryAfter reads a response's Retry-After header in both RFC
// 9110 forms — delta-seconds ("3") and HTTP-date ("Wed, 21 Oct 2026
// 07:28:00 GMT") — returning 0 when absent, malformed, or in the past,
// and clamping absurd values to retryAfterCap. hlod itself sends
// delta-seconds, but a client may sit behind any HTTP intermediary, so
// it accepts the full grammar.
func parseRetryAfter(resp *http.Response) time.Duration {
	return parseRetryAfterAt(resp, time.Now())
}

// parseRetryAfterAt is parseRetryAfter with an injectable clock for the
// HTTP-date form (tests).
func parseRetryAfterAt(resp *http.Response, now time.Time) time.Duration {
	if resp == nil {
		return 0
	}
	s := strings.TrimSpace(resp.Header.Get("Retry-After"))
	if s == "" {
		return 0
	}
	var d time.Duration
	if secs, err := strconv.Atoi(s); err == nil {
		d = time.Duration(secs) * time.Second
	} else if t, terr := http.ParseTime(s); terr == nil {
		d = t.Sub(now)
	} else {
		return 0
	}
	if d < 0 {
		return 0 // negative delta or a date already past: retry now
	}
	return min(d, retryAfterCap)
}
