// Package interp executes IR programs directly. It is the reference
// semantics for the whole toolchain: the PA8000 simulator must produce
// the same outputs, and every HLO transformation must preserve what this
// interpreter computes. It doubles as the paper's instrumented training
// build: with Options.Profile set it collects basic-block execution
// counts that feed profile-based optimization.
package interp

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/ir"
	"repro/internal/profile"
)

// Options configures a run.
type Options struct {
	Inputs   []int64 // the run's input vector (read by the input() runtime routine)
	MemSize  int64   // words of data memory; 0 means DefaultMemSize
	Fuel     int64   // instruction budget; 0 means DefaultFuel
	MaxDepth int     // call-depth budget; 0 means DefaultMaxDepth
	Profile  bool    // collect block execution counts
}

// DefaultMemSize is the data memory size in words.
const DefaultMemSize = 1 << 22

// DefaultFuel is the instruction execution budget.
const DefaultFuel = 500_000_000

// DefaultMaxDepth bounds the call depth. The interpreter recurses on
// the Go stack, and the simulated stack pointer only moves for
// functions with frame objects, so a frameless runaway recursion (e.g.
// a miscompile that breaks a recursion clamp — exactly what the
// differential fuzzer injects) would otherwise crash the process
// instead of returning an error. Any legitimate program stays far
// below this.
const DefaultMaxDepth = 1 << 16

// Result is the outcome of a run.
type Result struct {
	Output   []int64 // values passed to print(), in order
	ExitCode int64   // main's return value, or halt()'s argument
	Steps    int64   // IR instructions executed
	Profile  *profile.Data
}

// ErrFuel is returned when the instruction budget is exhausted.
var ErrFuel = errors.New("interp: fuel exhausted")

// ctxStride is how many executed IR instructions pass between context
// checks in RunCtx: cancellation latency stays in the microseconds
// while the per-instruction overhead is one AND and one predictable
// branch on the fuel counter.
const ctxStride = 8192

// Run executes the resolved program from main.
func Run(p *ir.Program, opts Options) (*Result, error) {
	return RunCtx(context.Background(), p, opts)
}

// RunCtx is Run with cancellation: execution checks ctx at
// step-budget boundaries (every ctxStride instructions, riding the
// fuel counter) and returns ctx.Err() — wrapped, so errors.Is sees
// context.Canceled or context.DeadlineExceeded — when the context
// dies mid-run.
func RunCtx(ctx context.Context, p *ir.Program, opts Options) (*Result, error) {
	main, err := p.MainFunc()
	if err != nil {
		return nil, err
	}
	m, err := newMachine(p, opts)
	if err != nil {
		return nil, err
	}
	// The machine's memory and arena go back to the pool on every exit;
	// nothing in a Result aliases them.
	defer putState(m.st)
	if ctx != nil {
		// Fail fast on a dead context: a short run could otherwise finish
		// between stride checks and mask the cancellation entirely.
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("interp: canceled before start: %w", err)
		}
		m.ctx = ctx
	}
	// The "OS" calls main with all parameters zero, so a parameterful
	// main is well-defined rather than an arity violation.
	ret, err := m.call(main, make([]int64, main.NumParams))
	if err != nil {
		var h haltSignal
		if !errors.As(err, &h) {
			return nil, err
		}
		ret = h.code
	}
	m.res.ExitCode = ret
	m.res.Steps = m.stepsUsed()
	if m.prof != nil {
		m.res.Profile = profile.New()
		for name, counts := range m.prof {
			m.res.Profile.Blocks[name] = counts
		}
	}
	return m.res, nil
}

type haltSignal struct{ code int64 }

func (h haltSignal) Error() string { return fmt.Sprintf("halt(%d)", h.code) }

type machine struct {
	ctx      context.Context
	prog     *ir.Program
	mem      []int64
	sp       int64 // stack pointer (grows down); frame bases are sp values
	limit    int64 // lowest legal stack address (top of globals)
	fuel     int64
	fuel0    int64
	depth    int // current call depth
	maxDepth int
	inputs   []int64
	res      *Result

	globalBase  map[string]int64
	funcID      map[string]int64
	funcByID    map[int64]*ir.Func
	runtimeByID map[int64]string

	// Pooled backing state and the arena cursor (current chunk, chunk
	// index, offset) for per-call register files and argument vectors.
	st    *interpState
	dirty []uint8
	cur   []int64
	ci    int
	off   int

	prof map[string][]int64 // block counts by function QName
}

// funcIDBase keeps function "addresses" disjoint from data addresses so
// that stray integers rarely alias a valid function.
const funcIDBase = int64(1) << 40

func newMachine(p *ir.Program, opts Options) (*machine, error) {
	memSize := opts.MemSize
	if memSize == 0 {
		memSize = DefaultMemSize
	}
	// Globals are laid out from address 16; the stack grows down from
	// the top of memory.
	end := int64(16)
	for _, mod := range p.Modules {
		for _, g := range mod.Globals {
			end += g.Size
		}
	}
	if end > memSize {
		return nil, fmt.Errorf("interp: globals end at address %d, beyond memory of %d words", end, memSize)
	}
	fuel := opts.Fuel
	if fuel == 0 {
		fuel = DefaultFuel
	}
	maxDepth := opts.MaxDepth
	if maxDepth == 0 {
		maxDepth = DefaultMaxDepth
	}
	st := getState(memSize)
	m := &machine{
		ctx:         context.Background(),
		prog:        p,
		mem:         st.mem,
		sp:          memSize,
		fuel:        fuel,
		fuel0:       fuel,
		maxDepth:    maxDepth,
		inputs:      opts.Inputs,
		res:         &Result{},
		globalBase:  make(map[string]int64),
		funcID:      make(map[string]int64),
		funcByID:    make(map[int64]*ir.Func),
		runtimeByID: make(map[int64]string),
		st:          st,
		dirty:       st.dirty,
		cur:         st.chunks[0],
	}
	// Lay out globals from address 16 (0 stays "null"). Only the
	// explicitly initialized prefix is written (and dirty-marked); the
	// rest of each global reads as zero straight from the pooled memory.
	addr := int64(16)
	for _, mod := range p.Modules {
		for _, g := range mod.Globals {
			m.globalBase[g.QName] = addr
			copy(m.mem[addr:addr+g.Size], g.Init)
			if n := int64(len(g.Init)); n > 0 {
				for pg := addr >> pageShift; pg <= (addr+n-1)>>pageShift; pg++ {
					m.dirty[pg] = 1
				}
			}
			addr += g.Size
		}
	}
	m.limit = addr
	id := funcIDBase
	p.Funcs(func(f *ir.Func) bool {
		id++
		m.funcID[f.QName] = id
		m.funcByID[id] = f
		return true
	})
	// Runtime routines are addressable too (the machine gives them
	// thunks); a nil entry in funcByID marks them.
	for name := range ir.RuntimeSigs() {
		id++
		m.funcID[ir.RuntimePrefix+name] = id
		m.runtimeByID[id] = name
	}
	if opts.Profile {
		m.prof = make(map[string][]int64)
	}
	return m, nil
}

func (m *machine) stepsUsed() int64 { return m.fuel0 - m.fuel }

func (m *machine) load(addr int64) (int64, error) {
	if addr < 0 || addr >= int64(len(m.mem)) {
		return 0, fmt.Errorf("interp: load from invalid address %d", addr)
	}
	return m.mem[addr], nil
}

func (m *machine) store(addr, v int64) error {
	if addr < 0 || addr >= int64(len(m.mem)) {
		return fmt.Errorf("interp: store to invalid address %d", addr)
	}
	m.mem[addr] = v
	m.dirty[addr>>pageShift] = 1
	return nil
}

// call executes f with the given arguments and returns its return value.
//
// Arity contract: passing FEWER arguments than the callee's parameters
// is an error. The front end rejects such calls statically, so reaching
// one at run time means either a lying extern declaration or — the case
// the differential fuzzer cares about — a transformation that rewrote a
// call wrongly; silently zero-filling would let the pre/post-HLO oracle
// mask that miscompile. Passing EXTRA arguments is defined behaviour
// (the surplus is dropped): the varargs calling convention depends on
// it, and the machine model behaves the same way (a callee only reads
// its declared parameter registers).
func (m *machine) call(f *ir.Func, args []int64) (int64, error) {
	if len(args) < f.NumParams {
		return 0, fmt.Errorf("interp: call of %s with %d args, needs %d", f.QName, len(args), f.NumParams)
	}
	m.depth++
	if m.depth > m.maxDepth {
		m.depth--
		return 0, fmt.Errorf("interp: call depth exceeds %d in %s", m.maxDepth, f.QName)
	}
	mci, moff := m.ci, m.off
	regs := m.alloc(int(f.NumRegs))
	if f.NumParams < len(regs) {
		clear(regs[f.NumParams:])
	}
	copy(regs, args[:f.NumParams])
	savedSP := m.sp
	m.sp -= f.FrameSize
	frameBase := m.sp
	if m.sp < m.limit {
		m.depth--
		m.release(mci, moff)
		return 0, fmt.Errorf("interp: stack overflow in %s", f.QName)
	}
	defer func() { m.sp = savedSP; m.depth--; m.release(mci, moff) }()

	var counts []int64
	if m.prof != nil {
		counts = m.prof[f.QName]
		if counts == nil {
			counts = make([]int64, len(f.Blocks))
			m.prof[f.QName] = counts
		} else if len(counts) < len(f.Blocks) {
			nc := make([]int64, len(f.Blocks))
			copy(nc, counts)
			counts = nc
			m.prof[f.QName] = counts
		}
	}

	b := f.Blocks[0]
	for {
		if counts != nil {
			counts[b.Index]++
		}
		next := -1
		for i := range b.Instrs {
			in := &b.Instrs[i]
			m.fuel--
			if m.fuel < 0 {
				return 0, ErrFuel
			}
			if m.fuel&(ctxStride-1) == 0 {
				if err := m.ctx.Err(); err != nil {
					return 0, fmt.Errorf("interp: canceled after %d steps: %w", m.stepsUsed(), err)
				}
			}
			switch in.Op {
			case ir.Nop:
			case ir.Mov:
				v, err := m.operand(in.A, regs)
				if err != nil {
					return 0, err
				}
				regs[in.Dst] = v
			case ir.Neg:
				v, err := m.operand(in.A, regs)
				if err != nil {
					return 0, err
				}
				regs[in.Dst] = -v
			case ir.Not:
				v, err := m.operand(in.A, regs)
				if err != nil {
					return 0, err
				}
				if v == 0 {
					regs[in.Dst] = 1
				} else {
					regs[in.Dst] = 0
				}
			case ir.Load:
				a, err := m.operand(in.A, regs)
				if err != nil {
					return 0, err
				}
				v, err := m.load(a)
				if err != nil {
					return 0, fmt.Errorf("%w (in %s at %s)", err, f.QName, in.Pos)
				}
				regs[in.Dst] = v
			case ir.Store:
				a, err := m.operand(in.A, regs)
				if err != nil {
					return 0, err
				}
				v, err := m.operand(in.B, regs)
				if err != nil {
					return 0, err
				}
				if err := m.store(a, v); err != nil {
					return 0, fmt.Errorf("%w (in %s at %s)", err, f.QName, in.Pos)
				}
			case ir.FrameAddr:
				regs[in.Dst] = frameBase + in.A.Val
			case ir.Alloca:
				n, err := m.operand(in.A, regs)
				if err != nil {
					return 0, err
				}
				if n < 0 {
					n = 0
				}
				m.sp -= n
				if m.sp < m.limit {
					return 0, fmt.Errorf("interp: stack overflow (alloca %d) in %s", n, f.QName)
				}
				regs[in.Dst] = m.sp
			case ir.Call:
				v, err := m.directCall(in, regs)
				if err != nil {
					return 0, err
				}
				if in.Dst != ir.NoReg {
					regs[in.Dst] = v
				}
			case ir.ICall:
				target, err := m.operand(in.A, regs)
				if err != nil {
					return 0, err
				}
				aci, aoff := m.ci, m.off
				args, err := m.evalArgs(in.Args, regs)
				if err != nil {
					return 0, err
				}
				var v int64
				if callee := m.funcByID[target]; callee != nil {
					v, err = m.call(callee, args)
				} else if name, ok := m.runtimeByID[target]; ok {
					v, err = m.runtimeCall(name, args)
				} else {
					return 0, fmt.Errorf("interp: indirect call to invalid address %d (in %s at %s)", target, f.QName, in.Pos)
				}
				m.release(aci, aoff) // the argument vector dies with the call
				if err != nil {
					return 0, err
				}
				if in.Dst != ir.NoReg {
					regs[in.Dst] = v
				}
			case ir.Ret:
				v, err := m.operand(in.A, regs)
				if err != nil {
					return 0, err
				}
				return v, nil
			case ir.Br:
				v, err := m.operand(in.A, regs)
				if err != nil {
					return 0, err
				}
				if v != 0 {
					next = in.Then
				} else {
					next = in.Else
				}
			case ir.Jmp:
				next = in.Then
			default:
				if in.Op.IsBinary() {
					x, err := m.operand(in.A, regs)
					if err != nil {
						return 0, err
					}
					y, err := m.operand(in.B, regs)
					if err != nil {
						return 0, err
					}
					regs[in.Dst] = EvalBinary(in.Op, x, y)
				} else {
					return 0, fmt.Errorf("interp: unknown op %s in %s", in.Op, f.QName)
				}
			}
		}
		if next < 0 {
			return 0, fmt.Errorf("interp: block %d of %s fell through", b.Index, f.QName)
		}
		b = f.Blocks[next]
	}
}

func (m *machine) directCall(in *ir.Instr, regs []int64) (int64, error) {
	aci, aoff := m.ci, m.off
	args, err := m.evalArgs(in.Args, regs)
	if err != nil {
		return 0, err
	}
	var v int64
	if ir.IsRuntime(in.Callee) {
		v, err = m.runtimeCall(ir.RuntimeName(in.Callee), args)
	} else {
		callee := m.prog.Func(in.Callee)
		if callee == nil {
			return 0, fmt.Errorf("interp: call to unknown function %q", in.Callee)
		}
		v, err = m.call(callee, args)
	}
	m.release(aci, aoff) // the argument vector dies with the call
	return v, err
}

func (m *machine) runtimeCall(name string, args []int64) (int64, error) {
	arg := func(i int) int64 {
		if i < len(args) {
			return args[i]
		}
		return 0
	}
	switch name {
	case "print":
		m.res.Output = append(m.res.Output, arg(0))
		return arg(0), nil
	case "input":
		// Contract: input(i) returns the i-th input word, and 0 for any
		// out-of-range index. The zero return is DEFINED behaviour, not an
		// error — the PA8000 model's input routine implements the same
		// rule (pa8000.SysInput), so both engines stay comparable on any
		// index a program produces. Programs that want to react to short
		// input vectors can consult ninputs(). randprog-generated code
		// never reads past randprog.MinInputs-1, by construction.
		i := arg(0)
		if i < 0 || i >= int64(len(m.inputs)) {
			return 0, nil
		}
		return m.inputs[i], nil
	case "ninputs":
		return int64(len(m.inputs)), nil
	case "halt":
		return 0, haltSignal{code: arg(0)}
	}
	return 0, fmt.Errorf("interp: unknown runtime routine %q", name)
}

// evalArgs carves the argument vector from the arena; the call site
// releases it once the call returns. Every slot is written before use,
// so the arena's arbitrary contents never leak through.
func (m *machine) evalArgs(ops []ir.Operand, regs []int64) ([]int64, error) {
	args := m.alloc(len(ops))
	for i, o := range ops {
		v, err := m.operand(o, regs)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return args, nil
}

func (m *machine) operand(o ir.Operand, regs []int64) (int64, error) {
	switch o.Kind {
	case ir.KindConst:
		return o.Val, nil
	case ir.KindReg:
		return regs[o.Reg], nil
	case ir.KindGlobalAddr:
		base, ok := m.globalBase[o.Sym]
		if !ok {
			return 0, fmt.Errorf("interp: unknown global %q", o.Sym)
		}
		return base, nil
	case ir.KindFuncAddr:
		id, ok := m.funcID[o.Sym]
		if !ok {
			return 0, fmt.Errorf("interp: unknown function %q", o.Sym)
		}
		return id, nil
	}
	return 0, fmt.Errorf("interp: invalid operand")
}

// EvalBinary applies a binary IR op with the machine's semantics.
func EvalBinary(op ir.Op, x, y int64) int64 {
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	switch op {
	case ir.Add:
		return x + y
	case ir.Sub:
		return x - y
	case ir.Mul:
		return x * y
	case ir.Div:
		if y == 0 {
			return 0
		}
		return x / y
	case ir.Rem:
		if y == 0 {
			return x
		}
		return x % y
	case ir.And:
		return x & y
	case ir.Or:
		return x | y
	case ir.Xor:
		return x ^ y
	case ir.Shl:
		return x << (uint64(y) & 63)
	case ir.Shr:
		return x >> (uint64(y) & 63)
	case ir.CmpEQ:
		return b2i(x == y)
	case ir.CmpNE:
		return b2i(x != y)
	case ir.CmpLT:
		return b2i(x < y)
	case ir.CmpLE:
		return b2i(x <= y)
	case ir.CmpGT:
		return b2i(x > y)
	case ir.CmpGE:
		return b2i(x >= y)
	}
	return 0
}
