package serve

import (
	"bytes"
	"net/http"

	"repro/internal/cas"
	"repro/internal/memo"
)

// The farm tier: when the server has a cas.Store (hlod -cache-dir), the
// response memo gains a store tier (see New). Fully rendered 200
// responses persist content-addressed by (endpoint, body), and fills
// are coordinated across every daemon sharing the directory by the
// store's fill lease:
//
//   - a response hit is replayed as bytes, before admission — it costs
//     no worker slot and no queue wait, and carries X-Hlod-Cache: hit;
//   - a miss takes the fill lease; the holder compiles and stores, and
//     the other daemons wait for the entry (or take over if the holder
//     dies — cas.WaitEntry's contract);
//   - every pipeline is deterministic and every request is a pure
//     function of its body, so replaying the filler's bytes (including
//     its recorded phase wall times, exactly as in-process waiters
//     already do) is byte-correct.
//
// Store trouble — a full disk, a lease wait that outlives the request
// ceiling — degrades to plain local execution: the farm tier can make
// a daemon faster, never unavailable.

// kindResponse is the cas artifact kind for rendered 200 responses.
const kindResponse = "resp"

// respKey canonicalizes the response key, in memory and in the store:
// endpoint and the raw body, length-prefixed by cas.Key. The body is
// the canonical form of the request (the JSON bytes as sent).
func respKey(endpoint string, body []byte) string {
	return cas.Key([]byte(endpoint), body)
}

// encodeResponse flattens a 200 flightResult: one header line carrying
// the content type, then the raw body. Any other status stays out of
// the store (nil).
func encodeResponse(res *flightResult) []byte {
	if res.status != http.StatusOK {
		return nil
	}
	out := make([]byte, 0, len(res.contentType)+1+len(res.body))
	out = append(out, res.contentType...)
	out = append(out, '\n')
	out = append(out, res.body...)
	return out
}

func decodeResponse(payload []byte) (*flightResult, bool) {
	cut := bytes.IndexByte(payload, '\n')
	if cut < 0 {
		return nil, false
	}
	return &flightResult{
		status:      http.StatusOK,
		contentType: string(payload[:cut]),
		body:        payload[cut+1:],
		cached:      true,
	}, true
}

// countTier records what the store tier did for one request under the
// serve counter names.
func (s *Server) countTier(ev memo.Event) {
	for _, c := range []struct {
		ev   memo.Event
		name string
	}{
		{memo.Hit, "serve.cas.resp.hit"},
		{memo.Miss, "serve.cas.resp.miss"},
		{memo.Fill, "serve.cas.resp.fill"},
		{memo.FillFail, "serve.cas.resp.fill_fail"},
		{memo.Degraded, "serve.cas.degraded"},
	} {
		if ev&c.ev != 0 {
			s.reg.Count(c.name, 1)
		}
	}
}

// ResponseCacheKey computes the cas key under which a daemon persists
// the rendered 200 response for (endpoint, body) — exactly the key the
// response memo uses. Exported for tests and repair tooling that must
// target a specific farm-store entry from outside the serving process.
func ResponseCacheKey(endpoint string, body []byte) string {
	return respKey(endpoint, body)
}
