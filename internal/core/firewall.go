package core

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/resilience"
)

// The pass firewall: every mutation site (inline, clone, outline) and
// every scalar-optimization boundary funnels through guardMutation,
// which decides — per Options.FailPolicy — whether a panic or a
// per-mutation verification failure aborts the run (the historical
// behaviour, still the default) or is contained: snapshots of the
// touched functions restored, a rollback remark emitted, a counter
// incremented, and compilation continued on the rest of the program.

// Fault-injection points inside HLO's guarded mutations. Disarmed (the
// only state outside fault campaigns) each costs two atomic loads.
var (
	ptInline  = resilience.Register("core/inline", resilience.KindRollback)
	ptClone   = resilience.Register("core/clone", resilience.KindRollback)
	ptOutline = resilience.Register("core/outline", resilience.KindRollback)
	ptOpt     = resilience.Register("core/opt", resilience.KindRollback)
)

// fwOutcome classifies one guarded mutation.
type fwOutcome uint8

const (
	// fwOK: the mutation landed (and, under VerifyEach, verified).
	fwOK fwOutcome = iota
	// fwDeclined: mutate returned an error before touching anything
	// (site vanished or was retargeted); nothing to roll back.
	fwDeclined
	// fwRolledBack: the mutation panicked or failed verification under a
	// non-abort FailPolicy; the snapshots were restored.
	fwRolledBack
)

// guardMutation runs one mutation under the pass firewall.
//
// mutate performs the transformation and returns the functions it
// created (registered in the program), a description for verification
// error messages, and an error when it declined before mutating
// anything. touched lists the pre-existing functions the mutation may
// modify. Unless it declined, the touched and created functions are
// marked dirty for the next reoptimize (see markDirty), whether the
// mutation landed or was rolled back.
//
// Under FailAbort the behaviour is exactly historical: no snapshots, a
// panic propagates, and checkMutation latches the first VerifyEach
// failure. Under FailRollback/FailSkipFunc the touched functions are
// snapshotted first; a panic (recovered) or a VerifyEach failure
// restores them in place, removes the created functions, restores the
// incremental cost, emits a rollback remark built from proto, and
// bumps the resilience counters. FailSkipFunc additionally quarantines
// the touched functions from further transformation.
func (h *hlo) guardMutation(proto obs.Remark, touched []*ir.Func, mutate func() (created []*ir.Func, what string, err error)) fwOutcome {
	if h.opts.FailPolicy == resilience.FailAbort {
		created, what, err := mutate()
		if err != nil {
			return fwDeclined
		}
		h.markDirty(touched, created)
		h.checkMutation(what, append(touched, created...)...)
		return fwOK
	}

	snaps := make([]*ir.Func, len(touched))
	for i, f := range touched {
		snaps[i] = f.Clone(f.QName)
	}
	costBefore := h.liveCost

	var created []*ir.Func
	var what string
	var err error
	var panicked bool
	var panicVal any
	func() {
		defer func() {
			if r := recover(); r != nil {
				panicked = true
				panicVal = r
			}
		}()
		created, what, err = mutate()
	}()
	if err == nil {
		h.markDirty(touched, created)
	}

	restore := func() {
		for _, nf := range created {
			h.prog.RemoveFunc(nf)
		}
		for i, f := range touched {
			*f = *snaps[i]
		}
		h.liveCost = costBefore
	}

	if panicked {
		restore()
		h.noteRollback(proto, touched, RolledBackPanic, fmt.Sprint(panicVal))
		return fwRolledBack
	}
	if err != nil {
		return fwDeclined // declined before mutating; nothing to undo
	}
	if h.opts.VerifyEach {
		for _, f := range append(touched, created...) {
			if f == nil {
				continue
			}
			if verr := h.prog.VerifyFuncStrict(f); verr != nil {
				restore()
				h.noteRollback(proto, touched, RolledBackVerify,
					fmt.Sprintf("after %s: %v", what, verr))
				return fwRolledBack
			}
		}
	}
	return fwOK
}

// noteRollback records one contained failure: a remark carrying the
// rollback reason and the panic/verification detail, the resilience
// counters, and — under FailSkipFunc — the quarantine of the touched
// functions.
func (h *hlo) noteRollback(proto obs.Remark, touched []*ir.Func, reason Reason, detail string) {
	if h.rec != nil {
		proto.Pass = h.pass
		proto.Accepted = false
		proto.Reason = reason.String()
		proto.Detail = detail
		h.rec.Remark(proto)
	}
	h.rec.Count("resilience.rollbacks", 1)
	h.rec.Count("resilience.rollbacks."+proto.Kind, 1)
	if h.opts.FailPolicy == resilience.FailSkipFunc {
		if h.skip == nil {
			h.skip = make(map[*ir.Func]bool)
		}
		for _, f := range touched {
			if f != nil {
				h.skip[f] = true
			}
		}
	}
}

// markDirty marks functions for re-optimization. A touched function is
// always marked. A created function is marked only when the mutation
// did not already run optimizeGuarded on it: makeClone optimizes its
// clone inside the clone mutation, and the mark that Optimize left
// (clean when it converged and was not rolled back) stays.
func (h *hlo) markDirty(touched, created []*ir.Func) {
	for _, f := range touched {
		if f != nil {
			h.dirty[f] = true
		}
	}
	for _, f := range created {
		if _, optimized := h.dirty[f]; f != nil && !optimized {
			h.dirty[f] = true
		}
	}
}

// skippedFunc reports whether f was quarantined by an earlier rollback
// under FailSkipFunc (always false under other policies).
func (h *hlo) skippedFunc(f *ir.Func) bool { return h.skip != nil && h.skip[f] }

// optimizeGuarded runs the scalar pipeline over one function under the
// firewall. Under FailAbort it is a plain opt.Optimize call — exactly
// the historical path, with no verification after opt (VerifyEach has
// always covered mutations, not scalar cleanups). Under a non-abort
// policy the function is snapshotted, panics roll back, and — with
// VerifyEach — a post-opt verification failure rolls back too. f ends
// clean only when its Optimize converged and was not rolled back.
func (h *hlo) optimizeGuarded(f *ir.Func, pure opt.Purity) {
	if h.opts.FailPolicy == resilience.FailAbort {
		h.dirty[f] = !opt.Optimize(f, pure, &h.optWork)
		return
	}
	if h.skippedFunc(f) {
		return
	}
	converged := false
	outcome := h.guardMutation(obs.Remark{Kind: RemarkOpt, Caller: f.QName}, []*ir.Func{f},
		func() ([]*ir.Func, string, error) {
			ptOpt.Inject()
			converged = opt.Optimize(f, pure, &h.optWork)
			return nil, "optimize " + f.QName, nil
		})
	if outcome == fwOK && converged {
		h.dirty[f] = false
	}
}
