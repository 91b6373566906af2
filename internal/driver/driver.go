// Package driver orchestrates the full compilation pipeline of the
// paper's Figure 1: front end → (optional isom buffering) → HLO →
// back end → linked executable, under the four scope configurations of
// Table 1 (base, cross-module, profile, cross-module+profile), including
// the PBO loop (instrumented build → training run → profile database →
// final build).
package driver

import (
	"context"
	"fmt"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/pa8000"
	"repro/internal/profile"
	"repro/internal/resilience"
)

// Options selects a compilation configuration.
type Options struct {
	// CrossModule routes compilation through the link-time isom path:
	// HLO sees every module at once (the paper's "c").
	CrossModule bool
	// Profile runs an instrumented training build first and feeds the
	// block counts to HLO (the paper's "p"). TrainInputs is the training
	// data set; ExtraTrainInputs optionally adds more training runs whose
	// profiles are merged in (the paper's "profile information from a
	// variety of sources" future-work item).
	Profile          bool
	TrainInputs      []int64
	ExtraTrainInputs [][]int64
	// ProfileData, when non-nil, is attached directly instead of running
	// a training build (a stored profile database, e.g. from hlocc
	// -use-profile). Implies Profile semantics for HLO.
	ProfileData *profile.Data
	// HLO carries the inliner/cloner options (budget, passes, toggles).
	HLO core.Options
	// Layout selects the linker's code-placement policy (source order or
	// profile-guided call affinity à la Pettis-Hansen).
	Layout backend.Layout
	// Machine configures the PA8000 model used by Run.
	Machine pa8000.Config
	// Obs receives phase spans for every pipeline stage (frontend,
	// training, each HLO pass, backend, simulation), the optimization
	// remarks HLO emits, and a counter registry unifying core.Stats and
	// pa8000.Stats. A nil recorder disables all recording at zero cost.
	Obs *obs.Recorder
	// Cache memoizes the front end and the training stage across
	// compilations of the same sources, and RunCtx's simulations of the
	// same linked program (see Cache). nil disables caching.
	Cache *Cache
}

// DefaultOptions is the paper's peak configuration: cross-module,
// profile-fed, budget 100, inlining and cloning both on.
func DefaultOptions(trainInputs []int64) Options {
	return Options{
		CrossModule: true,
		Profile:     true,
		TrainInputs: trainInputs,
		HLO:         core.DefaultOptions(),
	}
}

// Compilation is a fully built executable plus everything measured on
// the way.
type Compilation struct {
	IR      *ir.Program
	Machine *pa8000.Program
	Stats   core.Stats // HLO transformation statistics (Table 1 columns)
	// CompileCost models compile time: the Σ size² cost of every HLO
	// scope that ran, plus the instrumented build's cost when profiling
	// (the paper's compile times include the instrumenting compile).
	CompileCost int64
	// TrainResult is the training run outcome (nil without Profile).
	TrainResult *interp.Result
	CodeSize    int
}

// ptFrontend is the fault-injection point of the front end (armed only
// by tests; see internal/resilience).
var ptFrontend = resilience.Register("driver/frontend")

// Frontend parses, checks and lowers MiniC sources into a resolved
// program. A front-end panic — a parser bug on a pathological input, or
// an injected fault at driver/frontend — is contained and reported as
// an error. Containing it here (rather than in callers) also keeps the
// Cache sound: a panic escaping a memo fill would leave the entry
// unfinished and every later requester of those sources waiting on it.
func Frontend(sources []string) (p *ir.Program, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			p, err = nil, fmt.Errorf("driver: frontend panicked: %v", rec)
		}
	}()
	ptFrontend.Inject()
	files := make([]*minic.File, 0, len(sources))
	for i, src := range sources {
		f, err := minic.Parse(fmt.Sprintf("module%d.mc", i), src)
		if err != nil {
			return nil, err
		}
		if err := minic.Check(f); err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return lower.Program(files)
}

// publishAttachReport mirrors a dirty profile attachment into the
// observability stream: one remark per degraded function (kind
// "profile", reason "stale-profile") plus counters, so a stale database
// is visible in -remarks output instead of silently mis-steering HLO.
func publishAttachReport(rec *obs.Recorder, rep *profile.AttachReport) {
	if rec == nil || rep.Clean() {
		return
	}
	for _, m := range rep.Degraded {
		rec.Remark(obs.Remark{
			Kind:   "profile",
			Caller: m.Func,
			Reason: "stale-profile",
			Detail: m.Reason,
		})
	}
	rec.Count("profile.attach.degraded", int64(len(rep.Degraded)))
	rec.Count("profile.attach.unknown", int64(len(rep.Unknown)))
}

// Compile builds the sources under the given configuration.
func Compile(sources []string, opts Options) (*Compilation, error) {
	return CompileCtx(context.Background(), sources, opts)
}

// CompileCtx is Compile with cancellation: the context is threaded
// through every interruptible stage — the training run's interpreter
// (step-budget boundaries), HLO's pass driver and site loops (pass
// boundaries), and the stage seams in between — so a canceled or
// timed-out context unwinds the whole pipeline within one
// transformation or a few thousand interpreted steps. On cancellation
// the returned error wraps ctx.Err(); the partially built Compilation
// is discarded. A nil ctx means context.Background().
func CompileCtx(ctx context.Context, sources []string, opts Options) (*Compilation, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	rec := opts.Obs
	sp := rec.Begin("frontend")
	p, hit, err := opts.Cache.frontend(sources, rec)
	sp.End()
	countCache(rec, "cache.frontend", hit)
	if err != nil {
		return nil, err
	}
	c := &Compilation{IR: p}

	if opts.ProfileData != nil {
		publishAttachReport(rec, opts.ProfileData.Attach(p))
	} else if opts.Profile {
		// Instrumented build + training run. The instrumented build is a
		// plain front-end build (block counting needs unoptimized block
		// identities), so its compile cost is the unoptimized cost.
		sp := rec.Begin("train")
		e, hit, err := opts.Cache.trainProfile(ctx, sources, opts.TrainInputs, opts.ExtraTrainInputs, rec)
		countCache(rec, "cache.train", hit)
		if err != nil {
			sp.End()
			return nil, err
		}
		c.CompileCost += e.cost(opts.HLO.LinearCost)
		c.TrainResult = e.res
		publishAttachReport(rec, e.data.Attach(p))
		sp.End()
	}

	opts.HLO.Obs = rec
	hsp := rec.BeginSized("hlo", programSize(p), programCost(p, opts.HLO.LinearCost))
	if opts.CrossModule {
		st, err := core.RunCheckedCtx(ctx, p, core.WholeProgram(), opts.HLO)
		if err != nil {
			hsp.EndSized(st.SizeAfter, st.CostAfter)
			return nil, err
		}
		c.Stats = *st
	} else {
		// Traditional path: HLO buffers one module at a time, each under
		// its own span so per-module cost is visible in the trace.
		for _, m := range p.Modules {
			scope := core.SingleModule(m.Name)
			msp := rec.BeginSized("hlo/module-"+m.Name,
				scopeSize(p, scope), scopeCost(p, scope, opts.HLO.LinearCost))
			st, err := core.RunCheckedCtx(ctx, p, scope, opts.HLO)
			msp.EndSized(st.SizeAfter, st.CostAfter)
			if err != nil {
				hsp.EndSized(st.SizeAfter, st.CostAfter)
				return nil, err
			}
			c.Stats.Add(st)
		}
	}
	hsp.EndSized(c.Stats.SizeAfter, c.Stats.CostAfter)
	c.CompileCost += c.Stats.CostAfter
	publishHLOCounters(rec, &c.Stats)

	sp = rec.Begin("verify")
	err = p.Verify()
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("driver: post-HLO verification: %w", err)
	}
	sp = rec.Begin("backend")
	mp, err := backend.LinkLayoutObs(p, opts.Layout, rec)
	if err != nil {
		sp.End()
		return nil, err
	}
	c.Machine = mp
	c.CodeSize = backend.CodeSize(mp)
	sp.EndSized(c.CodeSize, 0)
	rec.Count("backend.code-size", int64(c.CodeSize))
	return c, nil
}

// Run executes the compiled program on the machine model.
func (c *Compilation) Run(opts Options, inputs []int64) (*pa8000.Stats, error) {
	return c.RunCtx(context.Background(), opts, inputs)
}

// RunCtx is Run with cancellation: the PA8000 model checks the context
// at instruction-budget boundaries, so a canceled context stops a
// simulation within a few thousand retired instructions. With
// opts.Cache set, a run with the same linked program, inputs and
// machine configuration as an earlier one replays its outcome (see
// Cache).
func (c *Compilation) RunCtx(ctx context.Context, opts Options, inputs []int64) (*pa8000.Stats, error) {
	sp := opts.Obs.Begin("simulate")
	st, hit, err := opts.Cache.simulate(ctx, c.Machine, opts.Machine, inputs, opts.Obs)
	sp.End()
	countCache(opts.Obs, "cache.sim", hit)
	if err == nil {
		publishSimCounters(opts.Obs, st)
	}
	return st, err
}

// countCache records one memoization lookup outcome as
// "<prefix>.hit" / "<prefix>.miss" — merged across a fan-out, misses
// count real work done (one per distinct key) and hits count work the
// cache saved.
func countCache(rec *obs.Recorder, prefix string, hit bool) {
	if rec == nil {
		return
	}
	if hit {
		rec.Count(prefix+".hit", 1)
	} else {
		rec.Count(prefix+".miss", 1)
	}
}

// publishHLOCounters exposes the HLO transformation statistics (Table 1
// columns) through the unified counter registry.
func publishHLOCounters(rec *obs.Recorder, st *core.Stats) {
	if rec == nil {
		return
	}
	rec.Count("hlo.inlines", int64(st.Inlines))
	rec.Count("hlo.clones", int64(st.Clones))
	rec.Count("hlo.clone-repls", int64(st.CloneRepls))
	rec.Count("hlo.deletions", int64(st.Deletions))
	rec.Count("hlo.outlines", int64(st.Outlines))
	rec.Count("hlo.promotions", int64(st.Promotions))
	rec.Count("hlo.dead-calls", int64(st.DeadCalls))
	rec.Count("hlo.passes", int64(st.Passes))
	rec.Count("hlo.size-before", int64(st.SizeBefore))
	rec.Count("hlo.size-after", int64(st.SizeAfter))
	rec.Count("hlo.cost-before", st.CostBefore)
	rec.Count("hlo.cost-after", st.CostAfter)
}

// publishSimCounters exposes the machine-model counters (Figure 7's raw
// numbers) through the unified counter registry.
func publishSimCounters(rec *obs.Recorder, st *pa8000.Stats) {
	if rec == nil {
		return
	}
	rec.Count("sim.cycles", st.Cycles)
	rec.Count("sim.instrs", st.Instrs)
	rec.Count("sim.iaccesses", st.IAccesses)
	rec.Count("sim.imisses", st.IMisses)
	rec.Count("sim.daccesses", st.DAccesses)
	rec.Count("sim.dmisses", st.DMisses)
	rec.Count("sim.branches", st.Branches)
	rec.Count("sim.mispredicts", st.Mispredicts)
	rec.Count("sim.calls", st.Calls)
	rec.Count("sim.returns", st.Returns)
}

// TrainProfile builds the program, runs it instrumented on the training
// inputs, and returns the profile database (exposed for tools that store
// profiles in files).
func TrainProfile(sources []string, trainInputs []int64) (*profile.Data, error) {
	var c *Cache // nil cache: uncached, like the historical path
	return c.TrainProfile(context.Background(), sources, trainInputs, nil)
}

func programSize(p *ir.Program) int {
	n := 0
	p.Funcs(func(f *ir.Func) bool {
		n += f.Size()
		return true
	})
	return n
}

func scopeSize(p *ir.Program, scope core.Scope) int {
	n := 0
	p.Funcs(func(f *ir.Func) bool {
		if scope.Contains(f) {
			n += f.Size()
		}
		return true
	})
	return n
}

func scopeCost(p *ir.Program, scope core.Scope, linear bool) int64 {
	var c int64
	p.Funcs(func(f *ir.Func) bool {
		if scope.Contains(f) {
			s := int64(f.Size())
			if linear {
				c += s
			} else {
				c += s * s
			}
		}
		return true
	})
	return c
}

func programCost(p *ir.Program, linear bool) int64 {
	var c int64
	p.Funcs(func(f *ir.Func) bool {
		s := int64(f.Size())
		if linear {
			c += s
		} else {
			c += s * s
		}
		return true
	})
	return c
}
