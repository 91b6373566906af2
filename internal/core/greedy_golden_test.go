package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/obs"
	"repro/internal/specsuite"
)

// The greedy bit-identity gate. The committed golden
// (testdata/policy-golden/greedy.json) holds one digest per specsuite
// benchmark × scope {module, cross} × budget {100, 150, 200} cell: the
// HLO statistics, the SHA-256 of the remark stream (JSONL, decision
// order) and of the final IR listing, the linked code size and the
// compile cost. HLO's greedy selection must reproduce every cell
// exactly; any drift in enumeration order, ranking keys, cost
// arithmetic or remark emission shows up as a hash mismatch naming the
// cell.

type cellDigest struct {
	Stats       core.Stats `json:"stats"`
	RemarksSHA  string     `json:"remarks_sha256"`
	IRSHA       string     `json:"ir_sha256"`
	CodeSize    int        `json:"code_size"`
	CompileCost int64      `json:"compile_cost"`
}

// digestCell compiles one cell and digests the observable outcome
// exactly as the golden generator did.
func digestCell(t *testing.T, cache *driver.Cache, b *specsuite.Benchmark, cross bool, budget int) cellDigest {
	t.Helper()
	opts := driver.Options{
		CrossModule: cross,
		Profile:     true,
		TrainInputs: b.Train,
		HLO:         core.DefaultOptions(),
		Cache:       cache,
	}
	opts.HLO.Budget = budget
	rec := obs.New()
	opts.Obs = rec
	c, err := driver.CompileCtx(context.Background(), b.Sources, opts)
	if err != nil {
		t.Fatalf("%s cross=%v b%d: %v", b.Name, cross, budget, err)
	}
	rh := sha256.New()
	enc := json.NewEncoder(rh)
	for _, rm := range rec.Remarks() {
		if err := enc.Encode(rm); err != nil {
			t.Fatal(err)
		}
	}
	ih := sha256.Sum256([]byte(c.IR.String()))
	return cellDigest{
		Stats:       c.Stats,
		RemarksSHA:  fmt.Sprintf("%x", rh.Sum(nil)),
		IRSHA:       fmt.Sprintf("%x", ih),
		CodeSize:    c.CodeSize,
		CompileCost: c.CompileCost,
	}
}

// TestGreedyBitIdenticalToSeed checks every golden cell.
func TestGreedyBitIdenticalToSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("full 84-cell differential matrix; skipped under -short")
	}
	data, err := os.ReadFile("../../testdata/policy-golden/greedy.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]cellDigest
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden) == 0 {
		t.Fatal("empty golden")
	}
	cache := driver.NewCache()
	cells := 0
	for _, b := range specsuite.All() {
		for _, cross := range []bool{false, true} {
			scope := "module"
			if cross {
				scope = "cross"
			}
			for _, budget := range []int{100, 150, 200} {
				label := fmt.Sprintf("%s/%s/b%d", b.Name, scope, budget)
				want, ok := golden[label]
				if !ok {
					t.Errorf("%s: missing from golden", label)
					continue
				}
				got := digestCell(t, cache, b, cross, budget)
				if got != want {
					t.Errorf("%s: diverged from the golden:\n got %+v\nwant %+v", label, got, want)
				}
				cells++
			}
		}
	}
	if cells != len(golden) {
		t.Errorf("checked %d cells, golden has %d", cells, len(golden))
	}
}
