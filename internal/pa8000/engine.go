package pa8000

import (
	"context"
	"fmt"
)

// The predecoded engine. runReference (ref.go) re-derives everything
// about an instruction on every execution: the depInfo switch, the
// syscall sub-switch, the alu dispatch, plus closure calls for memory
// and register writes and a method call per cache access. This engine
// pays those costs once per run in predecode() and executes from a
// dense 32-byte pInstr whose opcode is split per ALU variant and per
// syscall selector.
//
// The deeper win is run-level batching. A "run" is the straight-line
// stretch from an instruction through the next terminator (control
// transfer, halt, or ill-formed op). Three per-instruction costs are
// loop-invariant over a run and are applied once at run entry:
//
//   - fuel and the cancellation stride check: the run's fuel is
//     deducted in one subtraction, and ctx is probed only when the run
//     contains a ctxStride boundary. A run that fuel exhaustion or a
//     pending cancellation ends early is cut to the instructions that
//     complete before it, and the error is reported after the cut body;
//     every error discards the counters, so only the cut body's data
//     effects and its own load/store errors matter;
//   - instruction fetch: sequential pcs walk I-cache lines in order,
//     so the run decomposes into line segments — one lookup and one
//     final LRU stamp per segment instead of per instruction. With
//     power-of-two lines the lookup is the I-cache's resident map,
//     inline in the run loop; other line sizes go through
//     simCache.accessRun;
//   - issue pairing: every terminator ends its issue group, so a run
//     always begins group-fresh and its pairing cycles are a pure
//     function of its instructions — precomputed into pInstr.pairC.
//
// DESIGN.md ("Simulator engine") gives the measured worth of each of
// these mechanisms, and of the ones measured and deleted.
//
// Equivalence with the reference loop — same Stats fields, same
// output, same error text, same panics on malformed register numbers —
// is enforced by the differential tests in engine_test.go and by the
// hlofuzz engine oracle on every fuzz seed.

// pOp is the predecoded opcode: MOp with the ALU group flattened into
// individual cases, MSys split per selector, and explicit cases for
// ill-formed instructions.
type pOp uint8

const (
	pNop pOp = iota
	pMovI
	pMov
	pAddI
	pNeg
	pNot
	pLd
	pSt
	pSysPrint
	pSysInput
	pSysNInputs
	pAdd
	pSub
	pMul
	pDiv
	pRem
	pAnd
	pOr
	pXor
	pShl
	pShr
	pCmpEQ
	pCmpNE
	pCmpLT
	pCmpLE
	pCmpGT
	pCmpGE
	// Terminators: every op from pJmp on ends a run.
	pJmp
	pBz
	pBnz
	pCall
	pCallR
	pRet
	pSysHalt
	pSysBad // unknown syscall selector: error at execution time
	pHalt
	pBadOp // unknown MOp: error at execution time with the original name
)

// pInstr is one predecoded instruction: 32 bytes, no pointers. For
// static branches (jmp/bz/bnz/call) imm holds the resolved target, so
// arbitrary Target values survive exactly (the out-of-range error
// prints them verbatim).
type pInstr struct {
	imm   int64  // immediate, syscall selector, or static branch target
	span  uint32 // instructions from here through the run's terminator
	pairC uint32 // issue-group cycles for that run, entered group-fresh
	op    pOp
	rd    uint8
	rs    uint8
	rt    uint8
	mop   MOp // original opcode, kept for pBadOp's error text
}

func pOpOf(in *MInstr) pOp {
	switch in.Op {
	case MNop:
		return pNop
	case MMovI:
		return pMovI
	case MMov:
		return pMov
	case MAddI:
		return pAddI
	case MNeg:
		return pNeg
	case MNot:
		return pNot
	case MLd:
		return pLd
	case MSt:
		return pSt
	case MJmp:
		return pJmp
	case MBz:
		return pBz
	case MBnz:
		return pBnz
	case MCall:
		return pCall
	case MCallR:
		return pCallR
	case MRet:
		return pRet
	case MSys:
		switch in.Imm {
		case SysPrint:
			return pSysPrint
		case SysInput:
			return pSysInput
		case SysNInputs:
			return pSysNInputs
		case SysHalt:
			return pSysHalt
		default:
			return pSysBad
		}
	case MHalt:
		return pHalt
	case MAdd:
		return pAdd
	case MSub:
		return pSub
	case MMul:
		return pMul
	case MDiv:
		return pDiv
	case MRem:
		return pRem
	case MAnd:
		return pAnd
	case MOr:
		return pOr
	case MXor:
		return pXor
	case MShl:
		return pShl
	case MShr:
		return pShr
	case MCmpEQ:
		return pCmpEQ
	case MCmpNE:
		return pCmpNE
	case MCmpLT:
		return pCmpLT
	case MCmpLE:
		return pCmpLE
	case MCmpGT:
		return pCmpGT
	case MCmpGE:
		return pCmpGE
	}
	return pBadOp
}

// endsGroup reports whether the op runs the reference loop's
// endGroup() without being a terminator (the non-halting syscalls).
func endsGroup(op pOp) bool {
	return op == pSysPrint || op == pSysInput || op == pSysNInputs
}

// predecode translates p.Code into dst, reusing dst's capacity, and
// computes span/pairC for every instruction. Any pc can be entered
// dynamically (callr and ret take register targets), so the run
// metadata exists per instruction, not per block leader.
func predecode(dst []pInstr, code []MInstr, issueWidth int) []pInstr {
	n := len(code)
	if cap(dst) < n {
		dst = make([]pInstr, n)
	} else {
		dst = dst[:n]
	}
	for i := range code {
		in := &code[i]
		q := &dst[i]
		*q = pInstr{
			imm: in.Imm,
			op:  pOpOf(in),
			rd:  uint8(in.Rd),
			rs:  uint8(in.Rs),
			rt:  uint8(in.Rt),
			mop: in.Op,
		}
		switch q.op {
		case pJmp, pBz, pBnz, pCall:
			q.imm = int64(in.Target)
		}
		// Writes to r0 are discarded, so a pure register write with
		// rd 0 has no architectural effect: decode it as a nop and
		// spare the hot loop a destination guard on every ALU case.
		// Loads keep pLd — the memory access itself is observable.
		// Pairing is unaffected: pairC derives from depInfo on the
		// original code, and neither op ends an issue group.
		if q.rd == 0 {
			switch q.op {
			case pMovI, pMov, pAddI, pNeg, pNot,
				pAdd, pSub, pMul, pDiv, pRem,
				pAnd, pOr, pXor, pShl, pShr,
				pCmpEQ, pCmpNE, pCmpLT, pCmpLE, pCmpGT, pCmpGE:
				q.op = pNop
			}
		}
	}
	// Backward pass: span chains up to the next terminator; pairC
	// counts the refills (issue-group starts) of the run from each
	// entry. A dynamic entry always arrives group-fresh (every
	// terminator ends its group), so the first instruction refills;
	// the group it opens absorbs pairable successors until the next
	// refill point r, where the state coincides with a fresh entry at
	// r — hence pairC[j] = 1 + pairC[r]. The scan for r is bounded by
	// the issue width, so the pass is O(n · width).
	for j := n - 1; j >= 0; j-- {
		q := &dst[j]
		if q.op >= pJmp || j == n-1 { // terminator, or run falls off code end
			q.span = 1
			q.pairC = 1
			continue
		}
		q.span = dst[j+1].span + 1
		_, wj, memj := depInfo(&code[j])
		left := issueWidth - 1
		dst0 := wj
		hadMem := memj
		if endsGroup(q.op) {
			left = 0
		}
		end := j + int(q.span)
		i := j + 1
		for i < end {
			if left <= 0 {
				break
			}
			r2, w2, m2 := depInfo(&code[i])
			if m2 && hadMem {
				break
			}
			if dst0 != 0xff && (r2[0] == dst0 || r2[1] == dst0 || w2 == dst0) {
				break
			}
			left--
			if m2 {
				hadMem = true
			}
			if endsGroup(dst[i].op) {
				left = 0
			}
			i++
		}
		if i < end {
			q.pairC = 1 + dst[i].pairC
		} else {
			q.pairC = 1
		}
	}
	return dst
}

// accessRun applies the straight-line fetch sequence for pcs
// [pc0, pc0+n) — addresses pc/2 — to the I-cache, one probe and one
// final LRU stamp per line segment. Within a segment every reference
// access after the first is a guaranteed hit whose intermediate LRU
// stamps are overwritten before any other access can observe them, so
// only the segment-final stamp is applied. Returns the miss count.
func (c *simCache) accessRun(pc0, n int) (misses int64) {
	sh := c.lineShift + 1 // pc -> (pseudo-)line: (pc/2) >> lineShift
	pc := int64(pc0)
	rem := int64(n)
	for rem > 0 {
		line := pc >> sh
		s := ((line + 1) << sh) - pc // pcs left in this line
		if s > rem {
			s = rem
		}
		c.clock++
		c.accesses += s
		if line != c.lastLine {
			if !c.probe(pc >> 1) {
				misses++
			}
		}
		c.clock += s - 1
		c.lru[c.lastIdx] = c.clock
		pc += s
		rem -= s
	}
	return misses
}

// runEngine executes the program on pooled state. It mirrors
// runReference's observable behavior exactly; the comments mark the
// places where operation order matters for equivalence.
func runEngine(ctx context.Context, p *Program, cfg Config, inputs []int64) (*Stats, error) {
	cfg = cfg.withDefaults()
	s := getState(cfg)
	defer putState(s)
	s.code = predecode(s.code, p.Code, cfg.IssueWidth)
	code := s.code
	mem := s.mem
	dirty := s.dirty
	for _, di := range p.InitData {
		copy(mem[di.Addr:], di.Vals)
		if len(di.Vals) > 0 {
			for pg := di.Addr >> pageShift; pg <= (di.Addr+int64(len(di.Vals))-1)>>pageShift; pg++ {
				dirty[pg] = 1
			}
		}
	}
	// The register file is sized to the uint8 operand type's full range,
	// not NumRegs: indexing a [256]int64 with a uint8 needs no bounds
	// check, which pays in every ALU case of the run body. Architectural
	// registers are r0..r31; the backend never emits higher numbers, and
	// the upper entries are dead weight on the stack frame.
	var regs [256]int64
	regs[RSP] = cfg.MemWords
	pc := p.Entry
	fuel := cfg.Fuel
	lastDirty := int64(-1)

	missPenalty := cfg.MissPenalty
	mispredictPenalty := cfg.MispredictPenalty
	codeLen := len(code)
	codeLen64 := int64(codeLen)
	nInputs := int64(len(inputs))

	ic := &s.ic
	dc := &s.dc
	icSh := ic.lineShift + 1 // pc -> (pseudo-)line, fetch address pc/2
	// The I-cache's reachable lines cover exactly the code array (pc is
	// bounds-checked before any fetch), so a resident map is practical:
	// a few hundred entries re-emptied per run. Non-power-of-two line
	// sizes use pseudo-line identity and keep the probe path instead.
	var icRes []int32
	if ic.pow2Line && codeLen > 0 {
		ic.ensureResident(int64(codeLen-1)>>icSh + 1)
		icRes = ic.resident
	} else {
		ic.resident = nil
	}
	// The D-cache keeps the last-line check + probe path: its line space
	// covers all of data memory, so a resident map would be host-cache-
	// hostile (one cold load per access against a multi-megabyte array).
	dcSh := dc.lineShift
	bht := s.bht
	bhtMask := len(bht) - 1

	// The per-access cache scalars live in registers: the fast paths
	// touch only these locals plus one lru element, and the struct copies
	// are synced exactly where a helper needs them — clock before
	// installLine/probe (they stamp at c.clock), lastLine/lastIdx
	// reloaded after probe (the only mutator), accesses before
	// materializing Stats. Error exits skip the sync: they discard Stats,
	// and getState re-resets the caches on the next checkout. Extra live
	// scalars spill the loop's registers, so keep the hoisted set small.
	icLru := ic.lru
	icClock := ic.clock
	icAccesses := ic.accesses
	dcLru := dc.lru
	dcClock := dc.clock
	dcLastLine := dc.lastLine
	dcLastIdx := dc.lastIdx

	// All Stats counters as locals; materialized into a Stats only at
	// halt. Error returns discard them, as the reference does.
	var (
		cycles      int64
		instrs      int64
		daccesses   int64
		branches    int64
		predicted   int64
		mispredicts int64
		calls       int64
		returns     int64
	)

sim:
	for {
		if pc < 0 || pc >= codeLen {
			return nil, fmt.Errorf("pa8000: pc %d out of range", pc)
		}
		in0 := &code[pc]
		k := int64(in0.span)
		// n is how many of the run's k instructions complete. The
		// reference takes one fuel unit per instruction, runs the stride
		// check, then executes it, so fuel for only n < k instructions
		// cuts the run after n of them.
		n := k
		if fuel < k {
			n = fuel
		}
		// The stride check fires inside this run iff the fuel window
		// [fuel-k, fuel-1] contains a multiple of ctxStride; the first
		// such boundary comes before instruction (fuel-1)&(ctxStride-1),
		// which is below fuel, so a cancellation there wins over fuel
		// exhaustion. With a live context it is a no-op, exactly as in
		// the reference.
		if (fuel-1)&^int64(ctxStride-1) >= fuel-k {
			if ctx.Err() != nil {
				n = min(n, (fuel-1)&(ctxStride-1))
			}
		}
		fuel -= n
		instrs += n
		cycles += int64(in0.pairC)
		if icRes != nil {
			// The run's fetch sequence, segment by segment, inline: most
			// runs are one or two I-cache lines, so the loop-back branch
			// is cheap and there is no call. Advancing the clock past a
			// segment before its single probe/stamp is indistinguishable
			// from the reference's per-access stamps, which nothing else
			// observes before the segment's last one. A line covers
			// 2<<lineShift pcs, more than the average run, so the whole-
			// run-in-one-line case skips the segment bookkeeping.
			line := int64(pc) >> icSh
			if int64(pc+int(k)-1)>>icSh == line {
				icAccesses += k
				icClock += k
				if w := icRes[line]; w >= 0 {
					icLru[w] = icClock
				} else {
					ic.clock = icClock
					ic.installLine(line)
					cycles += missPenalty
				}
			} else {
				fpc := int64(pc)
				frem := k
				for {
					s := (line+1)<<icSh - fpc // pcs left in this line
					if s > frem {
						s = frem
					}
					icAccesses += s
					icClock += s
					if w := icRes[line]; w >= 0 {
						icLru[w] = icClock
					} else {
						ic.clock = icClock
						ic.installLine(line)
						cycles += missPenalty
					}
					frem -= s
					if frem == 0 {
						break
					}
					fpc += s
					line = fpc >> icSh
				}
			}
		} else {
			ic.accesses = icAccesses
			ic.clock = icClock
			if m := ic.accessRun(pc, int(k)); m != 0 {
				cycles += missPenalty * m
			}
			icAccesses = ic.accesses
			icClock = ic.clock
		}
		end := pc + int(k)
		// The run body executes from a subslice: range indexing is
		// provably in bounds and there is no per-instruction pc to
		// maintain. The terminator is always the full run's last element,
		// so inside the loop its pc is statically end-1; only the cold
		// load/store error paths reconstruct a pc from the index. A cut
		// run's subslice stops before the terminator. Counters, caches
		// and the BHT charged for the whole run are discarded with the
		// error it ends in.
		blk := code[pc : pc+int(n)]
		pc0 := pc
		pc = end
		for i := range blk {
			in := &blk[i]
			switch in.op {
			case pNop:
			case pMovI:
				regs[in.rd] = in.imm
			case pMov:
				regs[in.rd] = regs[in.rs]
			case pAddI:
				regs[in.rd] = regs[in.rs] + in.imm
			case pNeg:
				regs[in.rd] = -regs[in.rs]
			case pNot:
				var v int64
				if regs[in.rs] == 0 {
					v = 1
				}
				regs[in.rd] = v
			case pLd:
				daccesses++
				addr := regs[in.rs] + in.imm
				// One unsigned compare covers addr < 0 and addr >=
				// MemWords (len(mem) == cfg.MemWords by construction).
				if uint64(addr) >= uint64(len(mem)) {
					return nil, fmt.Errorf("pa8000: load from invalid address %d at pc %d", addr, pc0+i)
				}
				dcClock++
				if pline := addr >> dcSh; pline == dcLastLine {
					dcLru[dcLastIdx] = dcClock
				} else {
					dc.clock = dcClock
					if !dc.probe(addr) {
						cycles += missPenalty
					}
					dcLastLine = dc.lastLine
					dcLastIdx = dc.lastIdx
				}
				if in.rd != 0 {
					regs[in.rd] = mem[addr]
				}
			case pSt:
				daccesses++
				addr := regs[in.rs] + in.imm
				if uint64(addr) >= uint64(len(mem)) {
					return nil, fmt.Errorf("pa8000: store to invalid address %d at pc %d", addr, pc0+i)
				}
				dcClock++
				if pline := addr >> dcSh; pline == dcLastLine {
					dcLru[dcLastIdx] = dcClock
				} else {
					dc.clock = dcClock
					if !dc.probe(addr) {
						cycles += missPenalty
					}
					dcLastLine = dc.lastLine
					dcLastIdx = dc.lastIdx
				}
				mem[addr] = regs[in.rt]
				// Consecutive stores land on the same page almost always
				// (the stack), so a register compare replaces the dirty-map
				// load and its bounds check on the hot path.
				if pg := addr >> pageShift; pg != lastDirty {
					dirty[pg] = 1
					lastDirty = pg
				}
			case pSysPrint:
				s.out = append(s.out, regs[RArg0])
				regs[RRet] = regs[RArg0]
			case pSysInput:
				ix := regs[RArg0]
				if ix >= 0 && ix < nInputs {
					regs[RRet] = inputs[ix]
				} else {
					regs[RRet] = 0
				}
			case pSysNInputs:
				regs[RRet] = nInputs
			case pAdd:
				regs[in.rd] = regs[in.rs] + regs[in.rt]
			case pSub:
				regs[in.rd] = regs[in.rs] - regs[in.rt]
			case pMul:
				regs[in.rd] = regs[in.rs] * regs[in.rt]
			case pDiv:
				var v int64
				if y := regs[in.rt]; y != 0 {
					v = regs[in.rs] / y
				}
				regs[in.rd] = v
			case pRem:
				v := regs[in.rs]
				if y := regs[in.rt]; y != 0 {
					v = v % y
				}
				regs[in.rd] = v
			case pAnd:
				regs[in.rd] = regs[in.rs] & regs[in.rt]
			case pOr:
				regs[in.rd] = regs[in.rs] | regs[in.rt]
			case pXor:
				regs[in.rd] = regs[in.rs] ^ regs[in.rt]
			case pShl:
				regs[in.rd] = regs[in.rs] << (uint64(regs[in.rt]) & 63)
			case pShr:
				regs[in.rd] = regs[in.rs] >> (uint64(regs[in.rt]) & 63)
			case pCmpEQ:
				var v int64
				if regs[in.rs] == regs[in.rt] {
					v = 1
				}
				regs[in.rd] = v
			case pCmpNE:
				var v int64
				if regs[in.rs] != regs[in.rt] {
					v = 1
				}
				regs[in.rd] = v
			case pCmpLT:
				var v int64
				if regs[in.rs] < regs[in.rt] {
					v = 1
				}
				regs[in.rd] = v
			case pCmpLE:
				var v int64
				if regs[in.rs] <= regs[in.rt] {
					v = 1
				}
				regs[in.rd] = v
			case pCmpGT:
				var v int64
				if regs[in.rs] > regs[in.rt] {
					v = 1
				}
				regs[in.rd] = v
			case pCmpGE:
				var v int64
				if regs[in.rs] >= regs[in.rt] {
					v = 1
				}
				regs[in.rd] = v
			case pJmp:
				branches++
				pc = int(in.imm)
				continue sim
			case pBz, pBnz:
				branches++
				predicted++
				taken := regs[in.rs] == 0
				if in.op == pBnz {
					taken = !taken
				}
				idx := (end - 1) & bhtMask
				cnt := bht[idx]
				if (cnt >= 2) != taken {
					mispredicts++
					cycles += mispredictPenalty
				}
				if taken {
					if cnt < 3 {
						bht[idx] = cnt + 1
					}
					pc = int(in.imm)
				} else if cnt > 0 {
					bht[idx] = cnt - 1
				}
				// Not taken falls through to pc == end, already set.
				continue sim
			case pCall:
				branches++
				calls++
				regs[RRA] = int64(end)
				pc = int(in.imm)
				continue sim
			case pCallR:
				branches++
				calls++
				predicted++
				mispredicts++ // indirect target: no prediction
				cycles += mispredictPenalty
				// RRA is written before the target register is read, so
				// `callr r31` observes the new return address — as in
				// the reference.
				regs[RRA] = int64(end)
				t := regs[in.rs]
				if t < 0 || t >= codeLen64 {
					return nil, fmt.Errorf("pa8000: indirect call to invalid address %d at pc %d", t, end-1)
				}
				pc = int(t)
				continue sim
			case pRet:
				branches++
				returns++
				predicted++
				// The PA8000 always mispredicts procedure returns.
				mispredicts++
				cycles += mispredictPenalty
				t := regs[RRA]
				if t < 0 || t >= codeLen64 {
					return nil, fmt.Errorf("pa8000: return to invalid address %d at pc %d", t, end-1)
				}
				pc = int(t)
				continue sim
			case pSysHalt:
				ic.accesses = icAccesses
				return engineStats(s, regs[RArg0], cycles, instrs, daccesses,
					branches, predicted, mispredicts, calls, returns), nil
			case pSysBad:
				return nil, fmt.Errorf("pa8000: unknown syscall %d", in.imm)
			case pHalt:
				ic.accesses = icAccesses
				return engineStats(s, regs[RRet], cycles, instrs, daccesses,
					branches, predicted, mispredicts, calls, returns), nil
			default: // pBadOp
				return nil, fmt.Errorf("pa8000: unknown op %s at pc %d", in.mop, end-1)
			}
		}
		// Only a run without a terminator gets here. One that falls off
		// the code end goes on to the range check at the top, which
		// reports pc == end; a cut one ends the simulation. The cut left
		// fuel at zero only if fuel ran out, since a cancellation cut
		// leaves at least one unit.
		if pc0+len(blk) < end {
			if fuel == 0 {
				return nil, ErrFuel
			}
			return nil, fmt.Errorf("pa8000: canceled after %d instructions: %w", instrs, ctx.Err())
		}
	}
}

// engineStats materializes the locals into a fresh Stats at halt. The
// output is copied out of the pooled accumulator; a run with no prints
// reports a nil slice, as the reference's bare append does.
func engineStats(s *engineState, exitCode, cycles, instrs, daccesses,
	branches, predicted, mispredicts, calls, returns int64) *Stats {
	return &Stats{
		Cycles:      cycles,
		Instrs:      instrs,
		IAccesses:   s.ic.accesses,
		IMisses:     s.ic.misses,
		DAccesses:   daccesses,
		DMisses:     s.dc.misses,
		Branches:    branches,
		Predicted:   predicted,
		Mispredicts: mispredicts,
		Calls:       calls,
		Returns:     returns,
		Output:      append([]int64(nil), s.out...),
		ExitCode:    exitCode,
	}
}
