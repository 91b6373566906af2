package serve

import (
	"bytes"
	"context"
	"net/http"

	"repro/internal/cas"
)

// The farm tier: when the server has a cas.Store (hlod -cache-dir),
// fully rendered 200 responses are persisted content-addressed by
// (endpoint, body), and cache fills are coordinated across processes
// with the store's lease protocol. The in-process flightGroup already
// coalesces concurrent identical requests inside one daemon; this layer
// extends the same guarantee to N daemons sharing a cache directory:
//
//   - a response hit is replayed as bytes, before admission — it costs
//     no worker slot and no queue wait, and carries X-Hlod-Cache: hit;
//   - a miss acquires the cross-process fill lease; the winner compiles
//     and Puts, followers poll the entry (or take over if the leader
//     dies — cas.WaitEntry's contract);
//   - every pipeline is deterministic and every request is a pure
//     function of its body, so replaying the leader's bytes (including
//     its recorded phase wall times, exactly as in-process followers
//     already do) is byte-correct.
//
// Store trouble — a full disk, a lease wait that outlives the request
// ceiling — degrades to plain local execution: the farm tier can make
// a daemon faster, never unavailable.

// kindResponse is the cas artifact kind for rendered 200 responses.
const kindResponse = "resp"

// respKey canonicalizes the response cache key: endpoint and the raw
// body, length-prefixed by cas.Key. The body is the canonical form of
// the request (the JSON bytes as sent), matching the flightGroup key.
func respKey(endpoint string, body []byte) string {
	return cas.Key([]byte(endpoint), body)
}

// encodeResponse flattens a 200 flightResult: one header line carrying
// the content type, then the raw body.
func encodeResponse(res *flightResult) []byte {
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

// executeFarm is execute wrapped in the response tier. Runs inside the
// in-process single-flight, so one daemon enters it at most once
// concurrently per key.
func (s *Server) executeFarm(ctx context.Context, endpoint string, body []byte, build func(ctx context.Context, body []byte) *flightResult) *flightResult {
	if s.store == nil {
		return s.execute(ctx, endpoint, body, build)
	}
	key := respKey(endpoint, body)
	// Bound the cross-process wait by the request ceiling: a follower
	// stuck behind a slow-but-alive leader eventually stops waiting and
	// compiles locally rather than failing the request.
	wctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
	defer cancel()
	payload, lease, err := s.store.WaitEntry(wctx, kindResponse, key)
	if err != nil {
		if ctx.Err() != nil {
			return &flightResult{canceled: true} // our client left while we waited
		}
		s.reg.Count("serve.cas.degraded", 1)
		return s.execute(ctx, endpoint, body, build)
	}
	if payload != nil {
		if res, ok := decodeResponse(payload); ok {
			s.reg.Count("serve.cas.resp.hit", 1)
			return res
		}
		s.reg.Count("serve.cas.degraded", 1)
		return s.execute(ctx, endpoint, body, build)
	}
	// We hold the fill lease: compile, publish, release.
	defer lease.Release()
	s.reg.Count("serve.cas.resp.miss", 1)
	res := s.execute(ctx, endpoint, body, build)
	if res.status == http.StatusOK && !res.canceled {
		// A failed Put (disk full, store wedged, injected cas/write
		// fault) is a counted degradation, not an error: the response
		// was compiled locally and is served regardless; only the farm
		// misses out on the shared fill.
		if s.store.Put(kindResponse, key, encodeResponse(res)) == nil {
			s.reg.Count("serve.cas.resp.fill", 1)
		} else {
			s.reg.Count("serve.cas.resp.fill_fail", 1)
		}
	}
	return res
}

// ResponseCacheKey computes the cas key under which a daemon persists
// the rendered 200 response for (endpoint, body) — exactly the key
// executeFarm uses. Exported for tests and repair tooling that must
// target a specific farm-store entry from outside the serving process.
func ResponseCacheKey(endpoint string, body []byte) string {
	return respKey(endpoint, body)
}
