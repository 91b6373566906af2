package driver

// The training stage's persistent tier: trained profiles live in a
// content-addressed store (internal/cas) behind the in-memory memo, so
// a rebooted daemon warm-starts from profiles any process in the farm
// already trained, and the store's fill lease lets the farm train each
// key once.
//
// An entry ("profile" kind) is the instrumented build's compile cost
// under both cost models, then the trained database in the profile
// package's stable text form, keyed by cas.Key over trainKey — the
// same key the in-memory memo uses. A read or decode failure —
// corruption (quarantined by cas), version skew — falls back to
// training.
//
// The front end has no store tier: re-parsing a program is faster than
// decoding a stored one.

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cas"
	"repro/internal/memo"
	"repro/internal/profile"
)

// SetStore attaches the persistent tier. Call before the cache is
// shared (hlod does this at boot); a nil store leaves the cache purely
// in-memory.
func (c *Cache) SetStore(st *cas.Store) {
	if c == nil || st == nil {
		return
	}
	c.trains.Tier = &memo.Tier[*trainEntry]{Store: st, Kind: "profile", Encode: encodeTrain, Decode: decodeTrain}
}

// decodeTrain parses a stored profile entry. The entry carries the
// database and both compile costs but no interp.Result —
// Compilation.TrainResult is nil on warm boots, like a compile fed a
// stored -use-profile database.
func decodeTrain(raw []byte) (*trainEntry, bool) {
	e := &trainEntry{}
	rest := string(raw)
	for _, want := range []struct {
		name string
		dst  *int64
	}{{"costquad", &e.costQuad}, {"costlinear", &e.costLinear}} {
		cut := strings.IndexByte(rest, '\n')
		if cut < 0 {
			return nil, false
		}
		fields := strings.Fields(rest[:cut])
		rest = rest[cut+1:]
		if len(fields) != 2 || fields[0] != want.name {
			return nil, false
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, false
		}
		*want.dst = v
	}
	db, err := profile.Read(strings.NewReader(rest))
	if err != nil {
		return nil, false
	}
	e.data = db
	return e, true
}

func encodeTrain(e *trainEntry) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "costquad %d\ncostlinear %d\n", e.costQuad, e.costLinear)
	if e.data.Write(&buf) != nil {
		return nil
	}
	return buf.Bytes()
}
