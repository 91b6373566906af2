package core

import (
	"fmt"
	"time"

	"repro/internal/ipa"
	"repro/internal/ir"
	"repro/internal/obs"
)

// Remark kinds emitted by HLO (obs.Remark.Kind values).
const (
	RemarkInline   = "inline"
	RemarkClone    = "clone"
	RemarkOutline  = "outline"
	RemarkDeadCall = "dead-call"
	// RemarkOpt is emitted only by the pass firewall: a scalar-opt
	// boundary rolled back under a non-abort FailPolicy.
	RemarkOpt = "opt"
)

// remarkEdge records one decision about a raw call-graph edge (used by
// the legality screens, where no candidate struct exists yet).
func (h *hlo) remarkEdge(kind string, e *ipa.Edge, reason Reason) {
	if h.rec == nil {
		return
	}
	callee := e.Instr().Callee
	if e.Callee != nil {
		callee = e.Callee.QName
	}
	h.rec.Remark(obs.Remark{
		Kind:   kind,
		Pass:   h.pass,
		Caller: e.Caller.QName,
		Callee: callee,
		Site:   e.Instr().Site,
		Reason: reason.String(),
	})
}

// remarkInline records the outcome of one ranked inline candidate.
func (h *hlo) remarkInline(cand *inlineSite, accepted bool, reason Reason) {
	if h.rec == nil {
		return
	}
	h.rec.Remark(obs.Remark{
		Kind:     RemarkInline,
		Pass:     h.pass,
		Caller:   cand.caller.QName,
		Callee:   cand.callee.QName,
		Site:     cand.site,
		Accepted: accepted,
		Reason:   reason.String(),
		Benefit:  cand.benefit,
		Cost:     cand.cost,
		Headroom: cand.headroom,
	})
}

// remarkCloneSite records the outcome of one clone-group member site,
// with the group's budget state at selection time.
func (h *hlo) remarkCloneSite(grp *cloneGroup, i int, accepted bool, reason Reason, cloneName string) {
	if h.rec == nil {
		return
	}
	h.rec.Remark(obs.Remark{
		Kind:     RemarkClone,
		Pass:     h.pass,
		Caller:   grp.callers[i].QName,
		Callee:   grp.spec.callee.QName,
		Site:     grp.sites[i],
		Accepted: accepted,
		Reason:   reason.String(),
		Benefit:  grp.benefits[i],
		Cost:     grp.cost,
		Headroom: grp.headroom,
		Detail:   cloneName,
	})
}

// remarkOutline records the fate of one cold-block outlining candidate.
// Site carries the block index (blocks have no call-site IDs); Benefit
// is the straight-line body size removed from the hot routine.
func (h *hlo) remarkOutline(f *ir.Func, b *ir.Block, accepted bool, reason Reason, name string, saved int) {
	if h.rec == nil {
		return
	}
	h.rec.Remark(obs.Remark{
		Kind:     RemarkOutline,
		Caller:   f.QName,
		Callee:   name,
		Site:     int32(b.Index),
		Accepted: accepted,
		Reason:   reason.String(),
		Benefit:  int64(saved),
	})
}

// beginPhase opens a phase span named hlo/<phase> (or
// hlo/pass<N>/<phase> inside the pass loop), capturing the scope's size
// and compile cost on entry; endPhase recaptures them on exit. Both are
// no-ops — and walk nothing — when recording is disabled.
func (h *hlo) beginPhase(phase string) obs.Timer {
	if h.rec == nil {
		return obs.Timer{}
	}
	name := "hlo/" + phase
	if h.pass > 0 {
		name = fmt.Sprintf("hlo/pass%d/%s", h.pass, phase)
	}
	size, cost := h.sizedWalk()
	return h.rec.BeginSized(name, size, cost)
}

func (h *hlo) endPhase(t obs.Timer) {
	if h.rec == nil {
		return
	}
	size, cost := h.sizedWalk()
	t.EndSized(size, cost)
}

// sizedWalk is the full scope size + compile-cost rewalk the phase
// spans pay for their size/cost columns — pure observability overhead
// (the optimizer itself maintains liveCost by delta). Its time is
// charged to the hlo.bookkeeping-ns counter, so the attribution report
// shows when the recorder's own bookkeeping starts to matter.
func (h *hlo) sizedWalk() (int, int64) {
	t0 := time.Now()
	size, cost := h.scopeSize(), h.computeCost()
	h.bookkeepNS += time.Since(t0).Nanoseconds()
	return size, cost
}

// deadCallSite is a pure call site noted before dead-call elimination so
// its fate can be reported afterwards.
type deadCallSite struct {
	caller *ir.Func
	callee string
	site   int32
}

// pureCallSites lists every direct call in scope whose callee the
// side-effect analysis proved pure (the deletion candidates).
func (h *hlo) pureCallSites() []deadCallSite {
	var out []deadCallSite
	h.forScope(func(f *ir.Func) {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Op == ir.Call && h.pure[in.Callee] {
					out = append(out, deadCallSite{caller: f, callee: in.Callee, site: in.Site})
				}
			}
		}
	})
	return out
}

// emitDeadCallRemarks reports, for each pure call site noted before the
// elimination pass, whether the optimizer deleted it (accepted) or kept
// it because its result is still live (rejected).
func (h *hlo) emitDeadCallRemarks(cands []deadCallSite) {
	for _, c := range cands {
		_, _, alive := ir.FindSite(c.caller, c.site)
		reason := OK
		if alive {
			reason = LiveResult
		}
		h.rec.Remark(obs.Remark{
			Kind:     RemarkDeadCall,
			Caller:   c.caller.QName,
			Callee:   c.callee,
			Site:     c.site,
			Accepted: !alive,
			Reason:   reason.String(),
		})
	}
}
