// Package lower translates checked MiniC files into the IR. It plays the
// role of the paper's front ends emitting ucode: one MiniC file becomes
// one ir.Module, and a set of modules becomes a resolved ir.Program.
package lower

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/resilience"
	"repro/internal/source"
)

// ptModule is the fault-injection point of the lowering stage (armed
// only by tests; see internal/resilience).
var ptModule = resilience.Register("lower/module")

// Program lowers a set of parsed files and links them into a resolved
// program. Each file must already have passed minic.Check. A lowering
// panic — a gap in Check's guarantees on a pathological file, or an
// injected fault at lower/module — is contained and reported as an
// error naming the module being lowered.
func Program(files []*minic.File) (*ir.Program, error) {
	mods := make([]*ir.Module, 0, len(files))
	for _, f := range files {
		m, err := lowerModuleSafe(f)
		if err != nil {
			return nil, err
		}
		mods = append(mods, m)
	}
	p := ir.NewProgram(mods...)
	if err := p.Resolve(); err != nil {
		return nil, err
	}
	if err := p.Verify(); err != nil {
		return nil, err
	}
	return p, nil
}

// lowerModuleSafe runs Module under a recover boundary.
func lowerModuleSafe(f *minic.File) (m *ir.Module, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			m, err = nil, fmt.Errorf("lower: module %s: lowering panicked: %v", f.Module, rec)
		}
	}()
	ptModule.Inject()
	return Module(f)
}

// Module lowers one file to an ir.Module (references left source-level;
// ir.Program.Resolve canonicalizes them).
func Module(f *minic.File) (*ir.Module, error) {
	m := &ir.Module{Name: f.Module, Externs: make(map[string]ir.ExternSig)}
	for _, e := range f.Externs {
		m.Externs[e.Name] = ir.ExternSig{NumParams: e.NumParams, Varargs: e.Varargs}
	}
	for _, g := range f.Globals {
		size := g.ArraySize
		if size < 0 {
			size = 1
		}
		ig := &ir.Global{
			Name: g.Name, Module: f.Module, Static: g.Static, Size: size, Pos: g.Pos,
		}
		if g.Init != nil {
			v, ok := minic.ConstEval(g.Init)
			if !ok {
				return nil, fmt.Errorf("lower: %s: initializer of %s not constant", g.Pos, g.Name)
			}
			ig.Init = []int64{v}
		}
		for _, e := range g.InitList {
			v, ok := minic.ConstEval(e)
			if !ok {
				return nil, fmt.Errorf("lower: %s: initializer of %s not constant", g.Pos, g.Name)
			}
			ig.Init = append(ig.Init, v)
		}
		m.Globals = append(m.Globals, ig)
	}
	for _, fd := range f.Funcs {
		fn, err := lowerFunc(f, fd)
		if err != nil {
			return nil, err
		}
		m.Funcs = append(m.Funcs, fn)
	}
	return m, nil
}

type bindKind uint8

const (
	bindReg bindKind = iota
	bindFrame
	bindGlobalScalar
	bindGlobalArray
	bindFunc
	bindExtern
)

type binding struct {
	kind bindKind
	reg  ir.Reg
	off  int64  // bindFrame
	name string // symbol name for globals/funcs
}

type lowerer struct {
	file   *minic.File
	fn     *ir.Func
	cur    *ir.Block // nil after a terminator
	scopes []map[string]*binding
	module map[string]*binding
	loops  []loopCtx
	depth  int
	err    error
}

type loopCtx struct {
	breakTo, continueTo int
}

func lowerFunc(file *minic.File, fd *minic.FuncDecl) (*ir.Func, error) {
	fn := &ir.Func{
		Name:         fd.Name,
		Module:       file.Module,
		Static:       fd.Attrs.Static,
		NumParams:    len(fd.Params),
		ParamNames:   append([]string(nil), fd.Params...),
		Varargs:      fd.Attrs.Varargs,
		NoInline:     fd.Attrs.NoInline,
		AlwaysInline: fd.Attrs.Inline,
		Relaxed:      fd.Attrs.Relaxed,
		NumRegs:      int32(len(fd.Params)),
		Pos:          fd.Pos,
	}
	lo := &lowerer{file: file, fn: fn}
	lo.module = make(map[string]*binding)
	for _, e := range file.Externs {
		lo.module[e.Name] = &binding{kind: bindExtern, name: e.Name}
	}
	for _, g := range file.Globals {
		k := bindGlobalScalar
		if g.ArraySize >= 0 {
			k = bindGlobalArray
		}
		lo.module[g.Name] = &binding{kind: k, name: g.Name}
	}
	for _, f2 := range file.Funcs {
		lo.module[f2.Name] = &binding{kind: bindFunc, name: f2.Name}
	}

	lo.scopes = []map[string]*binding{make(map[string]*binding)}
	for i, p := range fd.Params {
		lo.scopes[0][p] = &binding{kind: bindReg, reg: ir.Reg(i)}
	}
	lo.cur = lo.newBlock()
	lo.block(fd.Body)
	if lo.err != nil {
		return nil, lo.err
	}
	if lo.cur != nil {
		lo.emit(ir.Instr{Op: ir.Ret, A: ir.ConstOp(0), Pos: fd.Pos})
		lo.cur = nil
	}
	// Unreachable join blocks (e.g. after a loop that never exits) may be
	// empty; terminate them so the verifier's invariants hold. They are
	// removed by the first cleanup pass.
	for _, b := range fn.Blocks {
		if b.Term() == nil {
			b.Instrs = append(b.Instrs, ir.Instr{Op: ir.Ret, A: ir.ConstOp(0), Pos: fd.Pos})
		}
	}
	return fn, nil
}

func (lo *lowerer) errorf(pos source.Pos, format string, args ...any) {
	if lo.err == nil {
		lo.err = fmt.Errorf("lower: %s: %s", pos, fmt.Sprintf(format, args...))
	}
}

func (lo *lowerer) newBlock() *ir.Block {
	b := &ir.Block{Index: len(lo.fn.Blocks), Depth: lo.depth}
	lo.fn.Blocks = append(lo.fn.Blocks, b)
	return b
}

func (lo *lowerer) emit(in ir.Instr) {
	if lo.cur == nil {
		// Dead code after return/break: keep it in an unreachable block.
		lo.cur = lo.newBlock()
	}
	lo.cur.Instrs = append(lo.cur.Instrs, in)
}

// terminate emits a terminator and closes the current block.
func (lo *lowerer) terminate(in ir.Instr) {
	lo.emit(in)
	lo.cur = nil
}

func (lo *lowerer) lookup(name string) *binding {
	for i := len(lo.scopes) - 1; i >= 0; i-- {
		if b, ok := lo.scopes[i][name]; ok {
			return b
		}
	}
	return lo.module[name]
}

func (lo *lowerer) pushScope() { lo.scopes = append(lo.scopes, make(map[string]*binding)) }
func (lo *lowerer) popScope()  { lo.scopes = lo.scopes[:len(lo.scopes)-1] }

func (lo *lowerer) block(b *minic.BlockStmt) {
	lo.pushScope()
	for _, s := range b.Stmts {
		lo.stmt(s)
	}
	lo.popScope()
}

func (lo *lowerer) stmt(s minic.Stmt) {
	if lo.err != nil {
		return
	}
	switch s := s.(type) {
	case *minic.BlockStmt:
		lo.block(s)
	case *minic.DeclStmt:
		lo.declStmt(s)
	case *minic.AssignStmt:
		lo.assign(s)
	case *minic.IfStmt:
		lo.ifStmt(s)
	case *minic.WhileStmt:
		lo.whileStmt(s)
	case *minic.ForStmt:
		lo.forStmt(s)
	case *minic.ReturnStmt:
		v := ir.ConstOp(0)
		if s.Value != nil {
			v = lo.expr(s.Value)
		}
		lo.terminate(ir.Instr{Op: ir.Ret, A: v, Pos: s.Pos})
	case *minic.BreakStmt:
		if len(lo.loops) == 0 {
			lo.errorf(s.Pos, "break outside loop")
			return
		}
		lo.terminate(ir.Instr{Op: ir.Jmp, Then: lo.loops[len(lo.loops)-1].breakTo, Pos: s.Pos})
	case *minic.ContinueStmt:
		if len(lo.loops) == 0 {
			lo.errorf(s.Pos, "continue outside loop")
			return
		}
		lo.terminate(ir.Instr{Op: ir.Jmp, Then: lo.loops[len(lo.loops)-1].continueTo, Pos: s.Pos})
	case *minic.ExprStmt:
		lo.exprForEffect(s.X)
	default:
		lo.errorf(s.StmtPos(), "unknown statement %T", s)
	}
}

func (lo *lowerer) declStmt(s *minic.DeclStmt) {
	d := s.Decl
	top := lo.scopes[len(lo.scopes)-1]
	if d.ArraySize >= 0 {
		off := lo.fn.FrameSize
		lo.fn.FrameSize += d.ArraySize
		top[d.Name] = &binding{kind: bindFrame, off: off}
		return
	}
	r := lo.fn.NewReg()
	init := ir.ConstOp(0)
	if d.Init != nil {
		init = lo.expr(d.Init)
	}
	lo.emit(ir.Instr{Op: ir.Mov, Dst: r, A: init, Pos: d.Pos})
	top[d.Name] = &binding{kind: bindReg, reg: r}
}

func (lo *lowerer) assign(s *minic.AssignStmt) {
	switch lhs := s.LHS.(type) {
	case *minic.Ident:
		b := lo.lookup(lhs.Name)
		if b == nil {
			lo.errorf(lhs.Pos, "undefined: %s", lhs.Name)
			return
		}
		switch b.kind {
		case bindReg:
			v := lo.expr(s.RHS)
			lo.emit(ir.Instr{Op: ir.Mov, Dst: b.reg, A: v, Pos: s.Pos})
		case bindGlobalScalar:
			v := lo.expr(s.RHS)
			lo.emit(ir.Instr{Op: ir.Store, A: ir.GlobalOp(b.name), B: v, Pos: s.Pos})
		default:
			lo.errorf(lhs.Pos, "cannot assign to %s", lhs.Name)
		}
	case *minic.IndexExpr:
		addr := lo.address(lhs)
		v := lo.expr(s.RHS)
		lo.emit(ir.Instr{Op: ir.Store, A: addr, B: v, Pos: s.Pos})
	default:
		lo.errorf(s.Pos, "invalid assignment target")
	}
}

func (lo *lowerer) ifStmt(s *minic.IfStmt) {
	cond := lo.expr(s.Cond)
	thenB := lo.newBlock()
	var elseB *ir.Block
	if s.Else != nil {
		elseB = lo.newBlock()
	}
	joinB := lo.newBlock()
	elseIdx := joinB.Index
	if elseB != nil {
		elseIdx = elseB.Index
	}
	lo.terminate(ir.Instr{Op: ir.Br, A: cond, Then: thenB.Index, Else: elseIdx, Pos: s.Pos})

	lo.cur = thenB
	lo.block(s.Then)
	if lo.cur != nil {
		lo.terminate(ir.Instr{Op: ir.Jmp, Then: joinB.Index, Pos: s.Pos})
	}
	if elseB != nil {
		lo.cur = elseB
		lo.stmt(s.Else)
		if lo.cur != nil {
			lo.terminate(ir.Instr{Op: ir.Jmp, Then: joinB.Index, Pos: s.Pos})
		}
	}
	lo.cur = joinB
}

func (lo *lowerer) whileStmt(s *minic.WhileStmt) {
	lo.depth++
	condB := lo.newBlock()
	bodyB := lo.newBlock()
	lo.depth--
	exitB := lo.newBlock()

	lo.terminate(ir.Instr{Op: ir.Jmp, Then: condB.Index, Pos: s.Pos})
	lo.cur = condB
	lo.depth++
	cond := lo.expr(s.Cond)
	lo.terminate(ir.Instr{Op: ir.Br, A: cond, Then: bodyB.Index, Else: exitB.Index, Pos: s.Pos})

	lo.cur = bodyB
	lo.loops = append(lo.loops, loopCtx{breakTo: exitB.Index, continueTo: condB.Index})
	lo.block(s.Body)
	lo.loops = lo.loops[:len(lo.loops)-1]
	if lo.cur != nil {
		lo.terminate(ir.Instr{Op: ir.Jmp, Then: condB.Index, Pos: s.Pos})
	}
	lo.depth--
	lo.cur = exitB
}

func (lo *lowerer) forStmt(s *minic.ForStmt) {
	lo.pushScope()
	if s.Init != nil {
		lo.stmt(s.Init)
	}
	lo.depth++
	condB := lo.newBlock()
	bodyB := lo.newBlock()
	postB := lo.newBlock()
	lo.depth--
	exitB := lo.newBlock()

	lo.terminate(ir.Instr{Op: ir.Jmp, Then: condB.Index, Pos: s.Pos})
	lo.cur = condB
	lo.depth++
	if s.Cond != nil {
		cond := lo.expr(s.Cond)
		lo.terminate(ir.Instr{Op: ir.Br, A: cond, Then: bodyB.Index, Else: exitB.Index, Pos: s.Pos})
	} else {
		lo.terminate(ir.Instr{Op: ir.Jmp, Then: bodyB.Index, Pos: s.Pos})
	}

	lo.cur = bodyB
	lo.loops = append(lo.loops, loopCtx{breakTo: exitB.Index, continueTo: postB.Index})
	lo.block(s.Body)
	lo.loops = lo.loops[:len(lo.loops)-1]
	if lo.cur != nil {
		lo.terminate(ir.Instr{Op: ir.Jmp, Then: postB.Index, Pos: s.Pos})
	}
	lo.cur = postB
	if s.Post != nil {
		lo.stmt(s.Post)
	}
	if lo.cur != nil {
		lo.terminate(ir.Instr{Op: ir.Jmp, Then: condB.Index, Pos: s.Pos})
	}
	lo.depth--
	lo.cur = exitB
	lo.popScope()
}

// exprForEffect lowers an expression-statement; call results are
// discarded (Dst = NoReg), which lets pure dead calls be deleted by the
// optimizer (the 072.sc curses effect).
func (lo *lowerer) exprForEffect(e minic.Expr) {
	if call, ok := e.(*minic.CallExpr); ok {
		lo.call(call, ir.NoReg)
		return
	}
	lo.expr(e)
}

// address lowers an index expression to an address operand.
func (lo *lowerer) address(e *minic.IndexExpr) ir.Operand {
	base := lo.expr(e.Base)
	idx := lo.expr(e.Index)
	if idx.IsConst() && idx.Val == 0 {
		return base
	}
	if base.IsConst() && base.Val == 0 {
		return idx
	}
	r := lo.fn.NewReg()
	lo.emit(ir.Instr{Op: ir.Add, Dst: r, A: base, B: idx, Pos: e.Pos})
	return ir.RegOp(r)
}

var binOpMap = map[minic.Tok]ir.Op{
	minic.PLUS: ir.Add, minic.MINUS: ir.Sub, minic.STAR: ir.Mul,
	minic.SLASH: ir.Div, minic.PERCENT: ir.Rem,
	minic.AMP: ir.And, minic.PIPE: ir.Or, minic.CARET: ir.Xor,
	minic.SHL: ir.Shl, minic.SHR: ir.Shr,
	minic.EQ: ir.CmpEQ, minic.NE: ir.CmpNE,
	minic.LT: ir.CmpLT, minic.LE: ir.CmpLE,
	minic.GT: ir.CmpGT, minic.GE: ir.CmpGE,
}

func (lo *lowerer) expr(e minic.Expr) ir.Operand {
	if lo.err != nil {
		return ir.ConstOp(0)
	}
	switch e := e.(type) {
	case *minic.NumLit:
		return ir.ConstOp(e.Val)
	case *minic.Ident:
		return lo.identValue(e)
	case *minic.IndexExpr:
		addr := lo.address(e)
		r := lo.fn.NewReg()
		lo.emit(ir.Instr{Op: ir.Load, Dst: r, A: addr, Pos: e.Pos})
		return ir.RegOp(r)
	case *minic.CallExpr:
		r := lo.fn.NewReg()
		lo.call(e, r)
		return ir.RegOp(r)
	case *minic.AllocaExpr:
		size := lo.expr(e.Size)
		lo.fn.UsesAlloca = true
		r := lo.fn.NewReg()
		lo.emit(ir.Instr{Op: ir.Alloca, Dst: r, A: size, Pos: e.Pos})
		return ir.RegOp(r)
	case *minic.UnExpr:
		return lo.unary(e)
	case *minic.BinExpr:
		return lo.binary(e)
	case *minic.CondExpr:
		return lo.cond(e)
	}
	lo.errorf(e.ExprPos(), "unknown expression %T", e)
	return ir.ConstOp(0)
}

func (lo *lowerer) identValue(e *minic.Ident) ir.Operand {
	b := lo.lookup(e.Name)
	if b == nil {
		lo.errorf(e.Pos, "undefined: %s", e.Name)
		return ir.ConstOp(0)
	}
	switch b.kind {
	case bindReg:
		return ir.RegOp(b.reg)
	case bindFrame:
		r := lo.fn.NewReg()
		lo.emit(ir.Instr{Op: ir.FrameAddr, Dst: r, A: ir.ConstOp(b.off), Pos: e.Pos})
		return ir.RegOp(r)
	case bindGlobalScalar:
		r := lo.fn.NewReg()
		lo.emit(ir.Instr{Op: ir.Load, Dst: r, A: ir.GlobalOp(b.name), Pos: e.Pos})
		return ir.RegOp(r)
	case bindGlobalArray:
		return ir.GlobalOp(b.name)
	case bindFunc, bindExtern:
		return ir.FuncOp(b.name)
	}
	return ir.ConstOp(0)
}

func (lo *lowerer) unary(e *minic.UnExpr) ir.Operand {
	if e.Op == minic.AMP {
		id, ok := e.X.(*minic.Ident)
		if !ok {
			lo.errorf(e.Pos, "& requires a name")
			return ir.ConstOp(0)
		}
		b := lo.lookup(id.Name)
		if b == nil {
			lo.errorf(id.Pos, "undefined: %s", id.Name)
			return ir.ConstOp(0)
		}
		switch b.kind {
		case bindGlobalScalar, bindGlobalArray:
			return ir.GlobalOp(b.name)
		case bindFunc, bindExtern:
			return ir.FuncOp(b.name)
		case bindFrame:
			r := lo.fn.NewReg()
			lo.emit(ir.Instr{Op: ir.FrameAddr, Dst: r, A: ir.ConstOp(b.off), Pos: e.Pos})
			return ir.RegOp(r)
		default:
			lo.errorf(e.Pos, "cannot take the address of %s", id.Name)
			return ir.ConstOp(0)
		}
	}
	x := lo.expr(e.X)
	r := lo.fn.NewReg()
	switch e.Op {
	case minic.MINUS:
		lo.emit(ir.Instr{Op: ir.Neg, Dst: r, A: x, Pos: e.Pos})
	case minic.BANG:
		lo.emit(ir.Instr{Op: ir.Not, Dst: r, A: x, Pos: e.Pos})
	case minic.TILDE:
		lo.emit(ir.Instr{Op: ir.Xor, Dst: r, A: x, B: ir.ConstOp(-1), Pos: e.Pos})
	default:
		lo.errorf(e.Pos, "unknown unary operator %s", e.Op)
	}
	return ir.RegOp(r)
}

func (lo *lowerer) binary(e *minic.BinExpr) ir.Operand {
	switch e.Op {
	case minic.ANDAND, minic.OROR:
		return lo.shortCircuit(e)
	}
	op, ok := binOpMap[e.Op]
	if !ok {
		lo.errorf(e.Pos, "unknown binary operator %s", e.Op)
		return ir.ConstOp(0)
	}
	x := lo.expr(e.X)
	y := lo.expr(e.Y)
	r := lo.fn.NewReg()
	lo.emit(ir.Instr{Op: op, Dst: r, A: x, B: y, Pos: e.Pos})
	return ir.RegOp(r)
}

// shortCircuit lowers && and || with control flow, producing 0/1.
func (lo *lowerer) shortCircuit(e *minic.BinExpr) ir.Operand {
	r := lo.fn.NewReg()
	x := lo.expr(e.X)
	// Normalize the first operand to 0/1 so the result is boolean even
	// when the second operand is skipped.
	lo.emit(ir.Instr{Op: ir.CmpNE, Dst: r, A: x, B: ir.ConstOp(0), Pos: e.Pos})
	evalY := lo.newBlock()
	join := lo.newBlock()
	if e.Op == minic.ANDAND {
		lo.terminate(ir.Instr{Op: ir.Br, A: ir.RegOp(r), Then: evalY.Index, Else: join.Index, Pos: e.Pos})
	} else {
		lo.terminate(ir.Instr{Op: ir.Br, A: ir.RegOp(r), Then: join.Index, Else: evalY.Index, Pos: e.Pos})
	}
	lo.cur = evalY
	y := lo.expr(e.Y)
	lo.emit(ir.Instr{Op: ir.CmpNE, Dst: r, A: y, B: ir.ConstOp(0), Pos: e.Pos})
	lo.terminate(ir.Instr{Op: ir.Jmp, Then: join.Index, Pos: e.Pos})
	lo.cur = join
	return ir.RegOp(r)
}

func (lo *lowerer) cond(e *minic.CondExpr) ir.Operand {
	r := lo.fn.NewReg()
	c := lo.expr(e.Cond)
	thenB := lo.newBlock()
	elseB := lo.newBlock()
	join := lo.newBlock()
	lo.terminate(ir.Instr{Op: ir.Br, A: c, Then: thenB.Index, Else: elseB.Index, Pos: e.Pos})
	lo.cur = thenB
	tv := lo.expr(e.Then)
	lo.emit(ir.Instr{Op: ir.Mov, Dst: r, A: tv, Pos: e.Pos})
	lo.terminate(ir.Instr{Op: ir.Jmp, Then: join.Index, Pos: e.Pos})
	lo.cur = elseB
	ev := lo.expr(e.Else)
	lo.emit(ir.Instr{Op: ir.Mov, Dst: r, A: ev, Pos: e.Pos})
	lo.terminate(ir.Instr{Op: ir.Jmp, Then: join.Index, Pos: e.Pos})
	lo.cur = join
	return ir.RegOp(r)
}

func (lo *lowerer) call(e *minic.CallExpr, dst ir.Reg) {
	// Direct call when the callee is an identifier bound to a function or
	// extern declaration (module scope); otherwise indirect.
	if id, ok := e.Fun.(*minic.Ident); ok {
		if b := lo.lookup(id.Name); b != nil && (b.kind == bindFunc || b.kind == bindExtern) {
			args := make([]ir.Operand, len(e.Args))
			for i, a := range e.Args {
				args[i] = lo.expr(a)
			}
			lo.emit(ir.Instr{Op: ir.Call, Dst: dst, Callee: b.name, Args: args, Pos: e.Pos})
			return
		}
	}
	fv := lo.expr(e.Fun)
	args := make([]ir.Operand, len(e.Args))
	for i, a := range e.Args {
		args[i] = lo.expr(a)
	}
	lo.emit(ir.Instr{Op: ir.ICall, Dst: dst, A: fv, Args: args, Pos: e.Pos})
}
