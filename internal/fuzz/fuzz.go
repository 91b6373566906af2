// Package fuzz is the differential-testing subsystem: it generates
// random MiniC programs (internal/randprog), compiles each one under a
// matrix of HLO configurations, and cross-checks every result against
// the unoptimized reference build. The paper's claim is that HLO is
// semantics-preserving at every budget — this package is the oracle for
// that claim.
//
// Oracles, per matrix cell:
//
//   - interpreter output equality: the optimized IR run on the reference
//     interpreter prints the same values and exits with the same code as
//     the unoptimized build;
//   - machine equality and retirement sanity: the linked PA8000 program
//     agrees with the reference too, and retires a sane instruction
//     count;
//   - isom fixed point: serialize → parse → re-serialize of the
//     optimized modules is the identity;
//   - remark-stream determinism: compiling the same cell twice yields
//     byte-identical remark JSONL (the obs streams carry no timestamps);
//   - cache equivalence: a cold and a warm driver.Cache compile produce
//     identical outputs and remarks;
//   - per-mutation verification: every cell compiles with
//     core.Options.VerifyEach, so each accepted inline/clone/outline is
//     strict-verified the moment it lands.
//
// A failing seed is captured as a Failure and can be shrunk with
// Minimize and stored in the crash corpus (see corpus.go, cmd/hlofuzz).
package fuzz

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/isom"
	"repro/internal/obs"
	"repro/internal/pa8000"
	"repro/internal/par"
	"repro/internal/randprog"
)

// Config tunes one fuzzing campaign.
type Config struct {
	// Gen is the generator configuration; the zero value selects
	// randprog.FuzzConfig (every grammar extension on).
	Gen randprog.Config
	// Fuel bounds the reference run; seeds whose reference build exceeds
	// it are skipped (generated programs terminate by construction, but
	// nested loops over many routines can still be slow). 0 means the
	// package default.
	Fuel int64
	// InjectBug deliberately miscompiles via core.Options.InjectBug, for
	// mutation-testing the oracles themselves.
	InjectBug string
	// Workers bounds Run's parallelism; 0 means par.DefaultWorkers.
	Workers int
}

// DefaultFuel bounds reference runs. Each seed is executed a dozen
// times across the matrix (reference, per-cell interp, machine model,
// training), so the gate is deliberately tight: a seed near the limit
// costs tens of milliseconds, not seconds, and the skipped tail adds
// nothing the cheap seeds don't already cover.
const DefaultFuel = 2_000_000

// fuzzMemWords sizes interpreter and machine-model data memory for fuzz
// runs. Generated programs touch a handful of globals and at most
// ~a hundred small stack frames, so the default 32 MB arena is pure
// zero-fill overhead at a dozen executions per seed; 2 MB is still two
// orders of magnitude more than any seed can address.
const fuzzMemWords = 1 << 18

func (c Config) gen() randprog.Config {
	if c.Gen == (randprog.Config{}) {
		return randprog.FuzzConfig()
	}
	return c.Gen
}

func (c Config) fuel() int64 {
	if c.Fuel <= 0 {
		return DefaultFuel
	}
	return c.Fuel
}

// Failure describes one divergence, with everything needed to replay it.
type Failure struct {
	Seed    int64    // generator seed (0 for corpus replays)
	Cell    string   // matrix cell that diverged
	Kind    string   // oracle that fired: output, steps, sim, isom, remarks, cache, compile, reference
	Detail  string   // human-readable specifics
	Sources []string // the MiniC modules
	Inputs  []int64  // run inputs
	Train   []int64  // training inputs
}

func (f *Failure) Error() string {
	return fmt.Sprintf("fuzz: seed %d cell %s: %s: %s", f.Seed, f.Cell, f.Kind, f.Detail)
}

// InputsFor derives the run input vector from a seed. It always has
// randprog.MinInputs entries, honouring the generator's input contract.
func InputsFor(seed int64) []int64 {
	return []int64{seed & 7, (seed >> 3) & 15, (seed >> 7) & 31}
}

// TrainFor derives the training input vector (deliberately different
// from the run inputs, like the paper's train/ref data sets).
func TrainFor(seed int64) []int64 { return InputsFor(seed + 1) }

// cell is one matrix configuration. mk must return fresh Options on
// every call so cells never share mutable state accidentally.
type cell struct {
	name string
	mk   func(train []int64) driver.Options
	// twice selects the determinism oracle: compile a second time with a
	// fresh recorder and require byte-identical remark streams.
	twice bool
	// cached selects the cache-equivalence oracle: compile cold and warm
	// through one shared driver.Cache and compare.
	cached bool
}

// matrix is the configuration grid: scopes (per-module / cross-module /
// profile / cross+profile) × budgets × both cost models × cache
// behaviour. VerifyEach and InjectBug are applied by the engine on top.
func matrix() []cell {
	base := func(train []int64) driver.Options {
		o := driver.Options{HLO: core.DefaultOptions()}
		o.HLO.VerifyEach = true
		o.Machine.MemWords = fuzzMemWords
		return o
	}
	with := func(f func(o *driver.Options, train []int64)) func([]int64) driver.Options {
		return func(train []int64) driver.Options {
			o := base(train)
			f(&o, train)
			return o
		}
	}
	return []cell{
		{name: "module/b100", mk: base},
		{name: "cross/b100", mk: with(func(o *driver.Options, _ []int64) {
			o.CrossModule = true
		})},
		{name: "cross/b150", mk: with(func(o *driver.Options, _ []int64) {
			o.CrossModule = true
			o.HLO.Budget = 150
		})},
		{name: "module/profile/linear", mk: with(func(o *driver.Options, train []int64) {
			o.Profile = true
			o.TrainInputs = train
			o.HLO.LinearCost = true
		})},
		{name: "cross/profile/outline/b200", mk: with(func(o *driver.Options, train []int64) {
			o.CrossModule = true
			o.Profile = true
			o.TrainInputs = train
			o.HLO.Budget = 200
			o.HLO.Outline = true
		}), twice: true},
		{name: "cross/profile/cached", mk: with(func(o *driver.Options, train []int64) {
			o.CrossModule = true
			o.Profile = true
			o.TrainInputs = train
		}), cached: true},
	}
}

// CheckSeed generates the seed's program and checks the whole matrix.
// It returns nil when every oracle agrees (or the seed is skipped for
// fuel), and the first Failure otherwise.
func CheckSeed(seed int64, cfg Config) *Failure {
	sources := randprog.Generate(seed, cfg.gen())
	f := CheckSources(sources, InputsFor(seed), TrainFor(seed), cfg)
	if f != nil {
		f.Seed = seed
	}
	return f
}

// CheckSources checks one explicit program (a corpus replay or a
// minimization candidate) under the full matrix.
func CheckSources(sources []string, inputs, train []int64, cfg Config) *Failure {
	fail := func(cell, kind, detail string) *Failure {
		return &Failure{Cell: cell, Kind: kind, Detail: detail,
			Sources: sources, Inputs: inputs, Train: train}
	}

	// Reference build: front end only, run on both input vectors. A
	// front-end rejection or runtime fault here is a generator bug, not
	// an HLO bug — still a finding.
	ref, err := driver.Frontend(sources)
	if err != nil {
		return fail("reference", "reference", fmt.Sprintf("frontend: %v", err))
	}
	want, err := interp.Run(ref, interp.Options{Inputs: inputs, Fuel: cfg.fuel(), MemSize: fuzzMemWords})
	if err == interp.ErrFuel {
		return nil // seed too slow to be a useful oracle: skip
	}
	if err != nil {
		return fail("reference", "reference", fmt.Sprintf("interp: %v", err))
	}
	if _, err := interp.Run(ref, interp.Options{Inputs: train, Fuel: cfg.fuel(), MemSize: fuzzMemWords}); err != nil {
		if err == interp.ErrFuel {
			return nil // the training run would be too slow as well
		}
		return fail("reference", "reference", fmt.Sprintf("train-input interp: %v", err))
	}

	for _, c := range matrix() {
		if f := checkCell(c, sources, inputs, train, want, cfg); f != nil {
			return f
		}
	}
	return nil
}

// compileCell runs one configured compile with a recorder attached and
// returns the compilation and its remark stream as JSONL bytes.
func compileCell(c cell, sources []string, train []int64, cfg Config, cache *driver.Cache) (*driver.Compilation, string, error) {
	opts := c.mk(train)
	opts.HLO.InjectBug = cfg.InjectBug
	opts.Cache = cache
	rec := obs.New()
	opts.Obs = rec
	comp, err := driver.Compile(sources, opts)
	if err != nil {
		return nil, "", err
	}
	var sb strings.Builder
	if err := obs.WriteJSONL(&sb, rec.Remarks()); err != nil {
		return nil, "", fmt.Errorf("remark encoding: %v", err)
	}
	return comp, sb.String(), nil
}

// engineDiff compares every pa8000.Stats counter of the predecoded
// engine against the reference loop and names the first field that
// disagrees ("" when they match exactly). Byte-identical statistics —
// not just output — are the engine's correctness contract: a batching
// bug that miscounts cycles or cache misses corrupts every experiment
// without changing a single program result.
func engineDiff(got, want *pa8000.Stats) string {
	diff := func(field string, g, w int64) string {
		return fmt.Sprintf("stats field %s: predecoded %d, reference %d", field, g, w)
	}
	switch {
	case got.Cycles != want.Cycles:
		return diff("Cycles", got.Cycles, want.Cycles)
	case got.Instrs != want.Instrs:
		return diff("Instrs", got.Instrs, want.Instrs)
	case got.IAccesses != want.IAccesses:
		return diff("IAccesses", got.IAccesses, want.IAccesses)
	case got.IMisses != want.IMisses:
		return diff("IMisses", got.IMisses, want.IMisses)
	case got.DAccesses != want.DAccesses:
		return diff("DAccesses", got.DAccesses, want.DAccesses)
	case got.DMisses != want.DMisses:
		return diff("DMisses", got.DMisses, want.DMisses)
	case got.Branches != want.Branches:
		return diff("Branches", got.Branches, want.Branches)
	case got.Predicted != want.Predicted:
		return diff("Predicted", got.Predicted, want.Predicted)
	case got.Mispredicts != want.Mispredicts:
		return diff("Mispredicts", got.Mispredicts, want.Mispredicts)
	case got.Calls != want.Calls:
		return diff("Calls", got.Calls, want.Calls)
	case got.Returns != want.Returns:
		return diff("Returns", got.Returns, want.Returns)
	case got.ExitCode != want.ExitCode:
		return diff("ExitCode", got.ExitCode, want.ExitCode)
	case !equalOutput(got.Output, want.Output):
		return fmt.Sprintf("output: predecoded %v, reference %v", got.Output, want.Output)
	}
	return ""
}

func checkCell(c cell, sources []string, inputs, train []int64, want *interp.Result, cfg Config) *Failure {
	fail := func(kind, detail string) *Failure {
		return &Failure{Cell: c.name, Kind: kind, Detail: detail,
			Sources: sources, Inputs: inputs, Train: train}
	}
	opts := c.mk(train) // for Run's machine config only
	comp, remarks, err := compileCell(c, sources, train, cfg, nil)
	if err != nil {
		return fail("compile", err.Error())
	}

	// Oracle 1: interpreter output equality against the reference, plus
	// a steps sanity bound — HLO only removes call overhead, so the
	// optimized build may not run substantially longer than the
	// reference (outlining adds back a few calls; allow that margin).
	got, err := interp.Run(comp.IR, interp.Options{Inputs: inputs, Fuel: cfg.fuel(), MemSize: fuzzMemWords})
	if err != nil {
		return fail("output", fmt.Sprintf("optimized interp: %v", err))
	}
	if got.ExitCode != want.ExitCode || !equalOutput(got.Output, want.Output) {
		return fail("output", fmt.Sprintf("optimized %v/%d, reference %v/%d",
			got.Output, got.ExitCode, want.Output, want.ExitCode))
	}
	if got.Steps > want.Steps+want.Steps/4+64 {
		return fail("steps", fmt.Sprintf("optimized steps %d, reference %d", got.Steps, want.Steps))
	}

	// Oracle 2: the machine model agrees and retires a sane instruction
	// count (at least one instruction, and not wildly above the IR step
	// count — machine expansion is small and bounded). The production
	// path runs the predecoded engine; oracle 6 below cross-checks it
	// against the retired reference loop on this same program before
	// anything else judges the result, errors included.
	st, err := comp.Run(opts, inputs)
	refSt, refErr := pa8000.RunReference(comp.Machine, opts.Machine, inputs)
	if (err == nil) != (refErr == nil) ||
		(err != nil && refErr != nil && err.Error() != refErr.Error()) {
		return fail("engine", fmt.Sprintf("predecoded engine %v, reference engine %v", err, refErr))
	}
	if err == nil {
		if d := engineDiff(st, refSt); d != "" {
			return fail("engine", d)
		}
	}
	if err != nil {
		return fail("sim", err.Error())
	}
	if st.ExitCode != want.ExitCode || !equalOutput(st.Output, want.Output) {
		return fail("sim", fmt.Sprintf("machine %v/%d, reference %v/%d",
			st.Output, st.ExitCode, want.Output, want.ExitCode))
	}
	if st.Instrs <= 0 || st.Instrs > 16*(got.Steps+64) {
		return fail("sim", fmt.Sprintf("machine retired %d instrs for %d IR steps", st.Instrs, got.Steps))
	}

	// Oracle 3: isom serialize → parse → re-serialize is a fixed point
	// on the optimized IR.
	for _, m := range comp.IR.Modules {
		var buf strings.Builder
		if err := isom.Write(&buf, m); err != nil {
			return fail("isom", fmt.Sprintf("write %s: %v", m.Name, err))
		}
		m2, err := isom.Read(strings.NewReader(buf.String()))
		if err != nil {
			return fail("isom", fmt.Sprintf("reparse %s: %v", m.Name, err))
		}
		var buf2 strings.Builder
		if err := isom.Write(&buf2, m2); err != nil {
			return fail("isom", fmt.Sprintf("rewrite %s: %v", m.Name, err))
		}
		if buf.String() != buf2.String() {
			return fail("isom", fmt.Sprintf("module %s not a serialization fixed point", m.Name))
		}
	}

	// Oracle 4: determinism — an identical second compile yields a
	// byte-identical remark stream and identical statistics.
	if c.twice {
		comp2, remarks2, err := compileCell(c, sources, train, cfg, nil)
		if err != nil {
			return fail("remarks", fmt.Sprintf("second compile: %v", err))
		}
		if remarks2 != remarks {
			return fail("remarks", "remark streams differ between identical compiles")
		}
		if comp2.Stats != comp.Stats {
			return fail("remarks", fmt.Sprintf("stats differ between identical compiles: %+v vs %+v",
				comp2.Stats, comp.Stats))
		}
	}

	// Oracle 5: cache equivalence — cold and warm compiles through one
	// shared cache match each other and the uncached compile.
	if c.cached {
		cache := driver.NewCache()
		cold, remarksCold, err := compileCell(c, sources, train, cfg, cache)
		if err != nil {
			return fail("cache", fmt.Sprintf("cold compile: %v", err))
		}
		warm, remarksWarm, err := compileCell(c, sources, train, cfg, cache)
		if err != nil {
			return fail("cache", fmt.Sprintf("warm compile: %v", err))
		}
		if remarksCold != remarksWarm || remarksCold != remarks {
			return fail("cache", "remark streams differ between cached and uncached compiles")
		}
		if cold.Stats != warm.Stats || cold.Stats != comp.Stats {
			return fail("cache", fmt.Sprintf("stats differ: uncached %+v cold %+v warm %+v",
				comp.Stats, cold.Stats, warm.Stats))
		}
		wres, err := interp.Run(warm.IR, interp.Options{Inputs: inputs, Fuel: cfg.fuel(), MemSize: fuzzMemWords})
		if err != nil {
			return fail("cache", fmt.Sprintf("warm interp: %v", err))
		}
		if wres.ExitCode != want.ExitCode || !equalOutput(wres.Output, want.Output) {
			return fail("cache", fmt.Sprintf("warm compile diverged: %v/%d, reference %v/%d",
				wres.Output, wres.ExitCode, want.Output, want.ExitCode))
		}
	}
	return nil
}

// Run fuzzes n consecutive seeds starting at start, in parallel, and
// returns every failure found in ascending seed order.
func Run(start int64, n int, cfg Config) []*Failure {
	fails := make([]*Failure, n)
	par.Do(cfg.Workers, n, func(i int) error {
		fails[i] = CheckSeed(start+int64(i), cfg)
		return nil
	})
	out := fails[:0]
	for _, f := range fails {
		if f != nil {
			out = append(out, f)
		}
	}
	return out
}

func equalOutput(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sizeRecount recomputes a function's size without the memo, for the
// stale-memo cross-check in tests.
func sizeRecount(f *ir.Func) int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}
