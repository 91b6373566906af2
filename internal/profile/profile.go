// Package profile holds the training-run profile database of the paper's
// PBO (profile-based optimization) flow: per-function basic-block
// execution counts gathered by an instrumented run on the training
// input, later attached to a freshly front-ended program before HLO
// runs. Because the instrumented build and the final build start from
// the same front-end output, block indices match exactly and no
// correlation heuristics are needed.
package profile

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ir"
	"repro/internal/resilience"
)

// ptRead is the fault-injection point of the profile reader (armed only
// by tests; see internal/resilience).
var ptRead = resilience.Register("profile/read")

// Data is a profile database.
type Data struct {
	// Blocks maps a function's canonical name to its per-block execution
	// counts (indexed by ir.Block.Index at instrumentation time).
	Blocks map[string][]int64
}

// New returns an empty database.
func New() *Data {
	return &Data{Blocks: make(map[string][]int64)}
}

// Mismatch describes one function whose recorded counts do not fit the
// program being decorated: the profile was trained on a different shape
// of the function (a stale profile after a source edit) or is corrupt.
type Mismatch struct {
	Func   string // canonical function name
	Reason string // human-readable shape violation
}

// AttachReport summarizes one Attach call. Degraded lists, sorted by
// name, the functions whose counts failed shape validation and fell
// back to static (zero-count) estimates; Unknown lists database entries
// naming no function in the program. A report with neither is Clean.
type AttachReport struct {
	Attached int        // functions decorated with matching counts
	Degraded []Mismatch // per-function fallbacks to static estimates
	Unknown  []string   // database entries absent from the program
}

// Clean reports whether every database entry matched the program.
func (r *AttachReport) Clean() bool {
	return len(r.Degraded) == 0 && len(r.Unknown) == 0
}

// Attach decorates the program with the database's counts: every block's
// Count and every function's EntryCount. Functions absent from the
// database (never executed in training) get zero counts, and a function
// with no blocks at all (an extern stub or a declaration-only routine)
// is skipped rather than dereferenced.
//
// Counts are shape-validated before use: an entry whose count vector
// does not have exactly one count per block, or that carries a negative
// count, belongs to a different version of the function (instrumented
// builds record every block, so a legitimate profile always fits). Such
// a function degrades to static estimates — all counts zero, as if it
// had never run in training — instead of decorating the wrong blocks,
// and the returned report names it. Callers that do not care remain
// source-compatible by ignoring the result.
func (d *Data) Attach(p *ir.Program) *AttachReport {
	rep := &AttachReport{}
	seen := make(map[string]bool, len(d.Blocks))
	p.Funcs(func(f *ir.Func) bool {
		if len(f.Blocks) == 0 {
			f.EntryCount = 0
			return true
		}
		counts, ok := d.Blocks[f.QName]
		seen[f.QName] = true
		if ok {
			if reason := shapeError(f, counts); reason != "" {
				rep.Degraded = append(rep.Degraded, Mismatch{Func: f.QName, Reason: reason})
				counts = nil // static fallback below
			} else {
				rep.Attached++
			}
		}
		for _, b := range f.Blocks {
			if b.Index < len(counts) {
				b.Count = counts[b.Index]
			} else {
				b.Count = 0
			}
		}
		f.EntryCount = f.Blocks[0].Count
		return true
	})
	for name := range d.Blocks {
		if !seen[name] {
			rep.Unknown = append(rep.Unknown, name)
		}
	}
	sort.Slice(rep.Degraded, func(i, j int) bool { return rep.Degraded[i].Func < rep.Degraded[j].Func })
	sort.Strings(rep.Unknown)
	return rep
}

// shapeError validates one count vector against the function it is
// about to decorate; "" means it fits.
func shapeError(f *ir.Func, counts []int64) string {
	if len(counts) != len(f.Blocks) {
		return fmt.Sprintf("profile has %d counts, function has %d blocks", len(counts), len(f.Blocks))
	}
	for i, c := range counts {
		if c < 0 {
			return fmt.Sprintf("negative count %d for block %d", c, i)
		}
	}
	return ""
}

// Merge folds another database into d, scaling the other's counts by
// weight/100 (weight 100 = equal weight). This implements the paper's
// future-work item of "incorporating profile information from a variety
// of sources": several training runs — or a stale profile plus a fresh
// one — can be blended before attachment.
//
// Scaling rounds to nearest rather than truncating, so a rarely-taken
// block with count 1 survives a weight-50 merge as 1 (0.5 rounded up)
// instead of vanishing, and the quotient/remainder split keeps the
// arithmetic overflow-free for counts near MaxInt64 (the naive
// c*weight/100 wraps once c exceeds MaxInt64/weight). Weight 100 is an
// exact pass-through.
func (d *Data) Merge(other *Data, weight int64) {
	for name, counts := range other.Blocks {
		dst := d.Blocks[name]
		if len(dst) < len(counts) {
			grown := make([]int64, len(counts))
			copy(grown, dst)
			dst = grown
		}
		for i, c := range counts {
			q, r := c/100, c%100
			dst[i] += q*weight + (r*weight+50)/100
		}
		d.Blocks[name] = dst
	}
}

// TotalCalls sums the entry counts of every profiled function, a rough
// measure of the training run's call volume.
func (d *Data) TotalCalls() int64 {
	var n int64
	for _, counts := range d.Blocks {
		if len(counts) > 0 {
			n += counts[0]
		}
	}
	return n
}

// Write serializes the database in a stable text form.
func (d *Data) Write(w io.Writer) error {
	names := make([]string, 0, len(d.Blocks))
	for name := range d.Blocks {
		names = append(names, name)
	}
	sort.Strings(names)
	bw := bufio.NewWriter(w)
	for _, name := range names {
		fmt.Fprintf(bw, "func %s", name)
		for _, c := range d.Blocks[name] {
			fmt.Fprintf(bw, " %d", c)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// Read parses a database written by Write. Blank lines are skipped; a
// duplicate "func" line for the same function replaces the earlier one
// (last entry wins), which lets concatenated databases act as simple
// overlays.
func Read(r io.Reader) (d *Data, err error) {
	// A reader panic (including an injected fault at profile/read) must
	// not take the compile down: profile data is advisory, and every
	// caller can degrade to a static-estimate build on error.
	defer func() {
		if rec := recover(); rec != nil {
			d, err = nil, fmt.Errorf("profile: read panicked: %v", rec)
		}
	}()
	ptRead.Inject()
	d = New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 || fields[0] != "func" {
			return nil, fmt.Errorf("profile: line %d: malformed entry", line)
		}
		counts := make([]int64, 0, len(fields)-2)
		for _, f := range fields[2:] {
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("profile: line %d: bad count %q", line, f)
			}
			counts = append(counts, v)
		}
		d.Blocks[fields[1]] = counts
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return d, nil
}
