package pa8000

import (
	"context"
	"fmt"
)

// This file is the retired pre-predecode interpreter, kept verbatim as
// the reference implementation for the predecoded engine (engine.go).
// It is the executable specification: the fuzz campaign's
// engine-equivalence oracle and the pa8000 differential tests run every
// program through both engines and require bit-identical Stats, output
// and error text. It allocates its caches, BHT and the full data-memory
// arena on every call — exactly the costs the predecoded engine exists
// to remove — so it must never be used on a hot path.

// RunReference executes the program with the reference engine.
func RunReference(p *Program, cfg Config, inputs []int64) (*Stats, error) {
	return RunReferenceCtx(context.Background(), p, cfg, inputs)
}

// RunReferenceCtx is RunReference with cancellation, mirroring RunCtx's
// contract exactly.
func RunReferenceCtx(ctx context.Context, p *Program, cfg Config, inputs []int64) (*Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("pa8000: canceled before start: %w", err)
	}
	if err := checkData(p, cfg); err != nil {
		return nil, err
	}
	return runReference(ctx, p, cfg, inputs)
}

// runReference is the historical RunCtx loop, unchanged: closure-based
// memory accessors, per-instruction depInfo extraction, heap-allocated
// caches and memory.
func runReference(ctx context.Context, p *Program, cfg Config, inputs []int64) (*Stats, error) {
	cfg = cfg.withDefaults()
	st := &Stats{}
	icache := NewCache(cfg.ICacheBytes, cfg.ICacheLine, cfg.ICacheAssoc)
	dcache := NewCache(cfg.DCacheBytes, cfg.DCacheLine, cfg.DCacheAssoc)
	bht := NewBHT(cfg.BHTEntries)

	mem := make([]int64, cfg.MemWords)
	for _, di := range p.InitData {
		copy(mem[di.Addr:], di.Vals)
	}
	var regs [NumRegs]int64
	regs[RSP] = cfg.MemWords
	pc := p.Entry
	fuel := cfg.Fuel

	// Issue grouping: an instruction joins the previous one's cycle when
	// the previous did not branch, there is no register dependence, and
	// the pair contains at most one memory op.
	groupLeft := 0
	var groupDst Reg = 0xff
	groupHadMem := false

	readMem := func(addr int64) (int64, error) {
		if addr < 0 || addr >= cfg.MemWords {
			return 0, fmt.Errorf("pa8000: load from invalid address %d at pc %d", addr, pc)
		}
		if !dcache.Access(addr) {
			st.Cycles += cfg.MissPenalty
		}
		return mem[addr], nil
	}
	writeMem := func(addr, v int64) error {
		if addr < 0 || addr >= cfg.MemWords {
			return fmt.Errorf("pa8000: store to invalid address %d at pc %d", addr, pc)
		}
		if !dcache.Access(addr) {
			st.Cycles += cfg.MissPenalty
		}
		mem[addr] = v
		return nil
	}
	setReg := func(r Reg, v int64) {
		if r != RZero {
			regs[r] = v
		}
	}

	for {
		if pc < 0 || pc >= len(p.Code) {
			return nil, fmt.Errorf("pa8000: pc %d out of range", pc)
		}
		fuel--
		if fuel < 0 {
			return nil, ErrFuel
		}
		if fuel&(ctxStride-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("pa8000: canceled after %d instructions: %w", st.Instrs, err)
			}
		}
		in := &p.Code[pc]
		st.Instrs++

		// Instruction fetch through the I-cache.
		if !icache.Access(int64(pc) / 2) { // 2 instructions (8 B) per word-equivalent: 4 B encoding
			st.Cycles += cfg.MissPenalty
		}

		// Issue accounting: join the open group unless a structural or
		// register dependence forbids it.
		reads2, writes2, isMem := depInfo(in)
		pairable := groupLeft > 0 &&
			!(isMem && groupHadMem) &&
			!(groupDst != 0xff && (reads2[0] == groupDst || reads2[1] == groupDst || writes2 == groupDst))
		if pairable {
			groupLeft--
			if isMem {
				groupHadMem = true
			}
		} else {
			st.Cycles++
			groupLeft = cfg.IssueWidth - 1
			groupDst = writes2
			groupHadMem = isMem
		}
		endGroup := func() { groupLeft = 0 }

		next := pc + 1
		switch in.Op {
		case MNop:
		case MMovI:
			setReg(in.Rd, in.Imm)
		case MMov:
			setReg(in.Rd, regs[in.Rs])
		case MAddI:
			setReg(in.Rd, regs[in.Rs]+in.Imm)
		case MNeg:
			setReg(in.Rd, -regs[in.Rs])
		case MNot:
			if regs[in.Rs] == 0 {
				setReg(in.Rd, 1)
			} else {
				setReg(in.Rd, 0)
			}
		case MLd:
			st.DAccesses++
			v, err := readMem(regs[in.Rs] + in.Imm)
			if err != nil {
				return nil, err
			}
			setReg(in.Rd, v)
		case MSt:
			st.DAccesses++
			if err := writeMem(regs[in.Rs]+in.Imm, regs[in.Rt]); err != nil {
				return nil, err
			}
		case MJmp:
			st.Branches++
			next = in.Target
			endGroup()
		case MBz, MBnz:
			st.Branches++
			st.Predicted++
			taken := regs[in.Rs] == 0
			if in.Op == MBnz {
				taken = !taken
			}
			if bht.Predict(pc) != taken {
				st.Mispredicts++
				st.Cycles += cfg.MispredictPenalty
			}
			bht.Update(pc, taken)
			if taken {
				next = in.Target
			}
			endGroup()
		case MCall:
			st.Branches++
			st.Calls++
			setReg(RRA, int64(pc+1))
			next = in.Target
			endGroup()
		case MCallR:
			st.Branches++
			st.Calls++
			st.Predicted++
			st.Mispredicts++ // indirect target: no prediction
			st.Cycles += cfg.MispredictPenalty
			setReg(RRA, int64(pc+1))
			t := regs[in.Rs]
			if t < 0 || t >= int64(len(p.Code)) {
				return nil, fmt.Errorf("pa8000: indirect call to invalid address %d at pc %d", t, pc)
			}
			next = int(t)
			endGroup()
		case MRet:
			st.Branches++
			st.Returns++
			st.Predicted++
			// The PA8000 always mispredicts procedure returns.
			st.Mispredicts++
			st.Cycles += cfg.MispredictPenalty
			t := regs[RRA]
			if t < 0 || t >= int64(len(p.Code)) {
				return nil, fmt.Errorf("pa8000: return to invalid address %d at pc %d", t, pc)
			}
			next = int(t)
			endGroup()
		case MSys:
			switch in.Imm {
			case SysPrint:
				st.Output = append(st.Output, regs[RArg0])
				setReg(RRet, regs[RArg0])
			case SysInput:
				i := regs[RArg0]
				if i >= 0 && i < int64(len(inputs)) {
					setReg(RRet, inputs[i])
				} else {
					setReg(RRet, 0)
				}
			case SysNInputs:
				setReg(RRet, int64(len(inputs)))
			case SysHalt:
				st.ExitCode = regs[RArg0]
				st.IAccesses = icache.Accesses
				st.IMisses = icache.Misses
				st.DMisses = dcache.Misses
				return st, nil
			default:
				return nil, fmt.Errorf("pa8000: unknown syscall %d", in.Imm)
			}
			endGroup()
		case MHalt:
			st.ExitCode = regs[RRet]
			st.IAccesses = icache.Accesses
			st.IMisses = icache.Misses
			st.DMisses = dcache.Misses
			return st, nil
		default:
			// Three-register ALU ops.
			v, err := alu(in.Op, regs[in.Rs], regs[in.Rt])
			if err != nil {
				return nil, fmt.Errorf("%v at pc %d", err, pc)
			}
			setReg(in.Rd, v)
		}
		pc = next
	}
}
