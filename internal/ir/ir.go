// Package ir defines the intermediate representation that plays the role
// of HP's "ucode" in the paper: a language-neutral, module-structured,
// three-address code over unlimited virtual registers. HLO (internal/core)
// is an ir-to-ir transformer, exactly as the paper's HLO is a
// ucode-to-ucode transformer.
//
// The machine model behind the IR is a flat, word-addressed memory of
// 64-bit integers. Globals and stack frames live in that memory; any
// integer value may be used as an address, which lets MiniC programs
// build heaps, object stores and interpreters out of global arrays.
// Function values are code addresses (small integers resolved at link
// time), enabling indirect calls through memory and registers.
package ir

import (
	"fmt"

	"repro/internal/source"
)

// Reg names a function-local virtual register. Registers are not SSA:
// a register may be assigned many times. NoReg marks "no destination".
type Reg int32

// NoReg is the absent-register sentinel.
const NoReg Reg = -1

// Op enumerates IR operations.
type Op uint8

// IR operations. Binary operations compute Dst = A op B; comparisons
// produce 0 or 1.
const (
	Nop Op = iota
	Mov    // Dst = A

	Add
	Sub
	Mul
	Div // quotient truncated toward zero; divide by zero yields 0 (checked machine)
	Rem // remainder; by zero yields A
	And
	Or
	Xor
	Shl // shift counts are masked to 6 bits
	Shr // arithmetic shift right

	CmpEQ
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE

	Neg // Dst = -A
	Not // Dst = (A == 0) ? 1 : 0

	Load      // Dst = mem[A]
	Store     // mem[A] = B
	FrameAddr // Dst = frame base + A (A must be a constant word offset)
	Alloca    // Dst = address of A freshly reserved stack words

	Call  // Dst = Callee(Args...); Dst may be NoReg
	ICall // Dst = (*A)(Args...); A holds a code address

	Ret // return A
	Br  // if A != 0 goto block Then else block Else
	Jmp // goto block Then

	NumOps // count sentinel, not a real op
)

var opNames = [...]string{
	Nop: "nop", Mov: "mov",
	Add: "add", Sub: "sub", Mul: "mul", Div: "div", Rem: "rem",
	And: "and", Or: "or", Xor: "xor", Shl: "shl", Shr: "shr",
	CmpEQ: "cmpeq", CmpNE: "cmpne", CmpLT: "cmplt", CmpLE: "cmple",
	CmpGT: "cmpgt", CmpGE: "cmpge",
	Neg: "neg", Not: "not",
	Load: "load", Store: "store", FrameAddr: "frameaddr", Alloca: "alloca",
	Call: "call", ICall: "icall",
	Ret: "ret", Br: "br", Jmp: "jmp",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// IsBinary reports whether o is a two-operand arithmetic/compare op.
func (o Op) IsBinary() bool { return o >= Add && o <= CmpGE }

// IsCompare reports whether o is a comparison producing 0/1.
func (o Op) IsCompare() bool { return o >= CmpEQ && o <= CmpGE }

// IsUnary reports whether o is a one-operand pure op.
func (o Op) IsUnary() bool { return o == Neg || o == Not || o == Mov }

// IsTerminator reports whether o must end a basic block.
func (o Op) IsTerminator() bool { return o == Ret || o == Br || o == Jmp }

// OperandKind discriminates Operand payloads.
type OperandKind uint8

// Operand kinds.
const (
	KindInvalid    OperandKind = iota
	KindConst                  // integer literal
	KindReg                    // virtual register
	KindGlobalAddr             // address of a global (resolved at link)
	KindFuncAddr               // code address of a function (resolved at link)
)

// Operand is a use of a value: a constant, a register, or a symbolic
// address. Symbolic operands carry the canonical name of the referenced
// entity (see Func.QName and Global.QName).
type Operand struct {
	Kind OperandKind
	Val  int64  // KindConst payload
	Reg  Reg    // KindReg payload
	Sym  string // KindGlobalAddr / KindFuncAddr payload (canonical name)
}

// ConstOp builds a constant operand.
func ConstOp(v int64) Operand { return Operand{Kind: KindConst, Val: v} }

// RegOp builds a register operand.
func RegOp(r Reg) Operand { return Operand{Kind: KindReg, Reg: r} }

// GlobalOp builds a global-address operand for canonical name sym.
func GlobalOp(sym string) Operand { return Operand{Kind: KindGlobalAddr, Sym: sym} }

// FuncOp builds a function-address operand for canonical name sym.
func FuncOp(sym string) Operand { return Operand{Kind: KindFuncAddr, Sym: sym} }

// IsConst reports whether the operand is an integer literal.
func (o Operand) IsConst() bool { return o.Kind == KindConst }

// IsReg reports whether the operand is a register use.
func (o Operand) IsReg() bool { return o.Kind == KindReg }

// IsSym reports whether the operand is a symbolic address.
func (o Operand) IsSym() bool { return o.Kind == KindGlobalAddr || o.Kind == KindFuncAddr }

func (o Operand) String() string {
	switch o.Kind {
	case KindConst:
		return fmt.Sprintf("%d", o.Val)
	case KindReg:
		return fmt.Sprintf("r%d", o.Reg)
	case KindGlobalAddr:
		return "&" + o.Sym
	case KindFuncAddr:
		return "@" + o.Sym
	default:
		return "?"
	}
}

// Eq reports operand equality.
func (o Operand) Eq(p Operand) bool {
	return o.Kind == p.Kind && o.Val == p.Val && o.Reg == p.Reg && o.Sym == p.Sym
}

// Instr is a single IR instruction. The meaning of the fields depends on
// Op; unused fields are zero. Instr is a value type so that copying a
// block copies its instructions (cloning and inlining rely on this).
type Instr struct {
	Op   Op
	Dst  Reg     // destination register or NoReg
	A, B Operand // primary operands
	// Calls.
	Callee string    // Call: canonical callee name (pre-link: source-level name)
	Args   []Operand // Call/ICall actual arguments
	// Site is a transformation-stable call-site identity assigned by HLO
	// at the start of each pass (0 = unassigned). Copies made by inlining
	// and cloning must have their Site cleared (see ClearSites).
	Site int32
	// Control flow. Block indices within the enclosing function.
	Then, Else int
	Pos        source.Pos
}

// HasDst reports whether the instruction writes a register.
func (in *Instr) HasDst() bool { return in.Dst != NoReg && writesDst(in.Op) }

func writesDst(op Op) bool {
	switch op {
	case Store, Ret, Br, Jmp, Nop:
		return false
	}
	return true
}

// Uses appends the register operands read by the instruction to dst and
// returns the extended slice. It covers A, B and Args as appropriate.
func (in *Instr) Uses(dst []Reg) []Reg {
	add := func(o Operand) {
		if o.Kind == KindReg {
			dst = append(dst, o.Reg)
		}
	}
	switch in.Op {
	case Nop, Jmp:
	case Call:
		for _, a := range in.Args {
			add(a)
		}
	case ICall:
		add(in.A)
		for _, a := range in.Args {
			add(a)
		}
	case Store:
		add(in.A)
		add(in.B)
	default:
		add(in.A)
		if in.Op.IsBinary() {
			add(in.B)
		}
	}
	return dst
}

// Operands calls f with a pointer to every operand of the instruction,
// enabling in-place rewriting (constant propagation, register renaming).
func (in *Instr) Operands(f func(*Operand)) {
	switch in.Op {
	case Nop, Jmp:
	case Call:
		for i := range in.Args {
			f(&in.Args[i])
		}
	case ICall:
		f(&in.A)
		for i := range in.Args {
			f(&in.Args[i])
		}
	case Store:
		f(&in.A)
		f(&in.B)
	case Ret, Br, Neg, Not, Mov, Load, FrameAddr, Alloca:
		f(&in.A)
	default:
		if in.Op.IsBinary() {
			f(&in.A)
			f(&in.B)
		}
	}
}

// HasSideEffects reports whether the instruction can affect state beyond
// its destination register (memory writes, control flow, calls). Pure
// calls are still reported as effectful here; interprocedural analysis
// (internal/ipa) refines this.
func (in *Instr) HasSideEffects() bool {
	switch in.Op {
	case Store, Call, ICall, Ret, Br, Jmp, Alloca:
		return true
	}
	return false
}

// Clone returns a deep copy of the instruction (Args are copied).
func (in *Instr) Clone() Instr {
	cp := *in
	if in.Args != nil {
		cp.Args = make([]Operand, len(in.Args))
		copy(cp.Args, in.Args)
	}
	return cp
}

// Block is a basic block: straight-line instructions ending in a
// terminator. Count carries the profile execution count when profile
// data has been attached (see internal/profile); it is zero otherwise.
type Block struct {
	Index  int
	Instrs []Instr
	Count  int64 // profile: number of times the block executed in training
	Depth  int   // static loop-nesting depth estimated by the front end
}

// Term returns a pointer to the block terminator, or nil if the block is
// empty or unterminated (only legal mid-construction).
func (b *Block) Term() *Instr {
	if n := len(b.Instrs); n > 0 && b.Instrs[n-1].Op.IsTerminator() {
		return &b.Instrs[n-1]
	}
	return nil
}

// Succs returns the successor block indices of b as s[:n], Then before
// Else, without allocating: callers range over s[:n].
func (b *Block) Succs() (s [2]int, n int) {
	t := b.Term()
	if t == nil {
		return s, 0
	}
	switch t.Op {
	case Br:
		s[0], s[1] = t.Then, t.Else
		if t.Then == t.Else {
			return s, 1
		}
		return s, 2
	case Jmp:
		s[0] = t.Then
		return s, 1
	}
	return s, 0
}

// Clone returns a deep copy of the block.
func (b *Block) Clone() *Block {
	nb := &Block{Index: b.Index, Count: b.Count, Depth: b.Depth}
	nb.Instrs = make([]Instr, len(b.Instrs))
	for i := range b.Instrs {
		nb.Instrs[i] = b.Instrs[i].Clone()
	}
	return nb
}

// Func is a routine: a CFG of basic blocks. Blocks[0] is the entry.
// Parameters arrive in registers 0..NumParams-1.
type Func struct {
	Name   string // source-level name
	Module string // defining module
	QName  string // canonical program-unique name ("module:name")

	Static   bool // file-scope (not visible to other modules before promotion)
	Promoted bool // static promoted to global scope by cross-module inline/clone

	NumParams    int
	ParamNames   []string
	Varargs      bool // callers may pass extra arguments; never inlined/cloned
	NoInline     bool // user pragma
	AlwaysInline bool // user pragma (still subject to legality)
	Relaxed      bool // "relaxed" arithmetic IR flag; mismatch blocks inlining (paper's technical restriction)
	UsesAlloca   bool // body uses dynamic stack allocation (pragmatic restriction)

	NumRegs   int32 // virtual registers used (register file size)
	FrameSize int64 // words of statically-sized frame objects (local arrays)

	Blocks []*Block

	// Profile data: number of times the function was entered in training.
	EntryCount int64

	// Provenance for transformation statistics.
	ClonedFrom string // QName of the clonee if this func is a clone
	Pos        source.Pos

	// sizeMemo caches Size()+1; 0 means unknown (the zero value of a
	// freshly built Func is dirty by construction). Transformations that
	// add or remove instructions must call InvalidateSize.
	sizeMemo int32
}

// Size returns the instruction count of f, the size metric used by the
// paper's compile-time cost model (cost of optimizing f ~ Size(f)²).
// The count is memoized under a dirty bit: HLO consults sizes on every
// budget decision and phase boundary, so a full recount per query would
// dominate. Mutators must call InvalidateSize after changing the number
// of instructions. Memoization makes Size unsafe for concurrent use on
// a shared Func; the parallel harness works on private Program clones.
func (f *Func) Size() int {
	if f.sizeMemo > 0 {
		return int(f.sizeMemo - 1)
	}
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	f.sizeMemo = int32(n + 1)
	return n
}

// InvalidateSize drops the memoized instruction count. Every pass that
// inserts or deletes instructions (or whole blocks) must call it.
func (f *Func) InvalidateSize() { f.sizeMemo = 0 }

// NewReg allocates a fresh virtual register.
func (f *Func) NewReg() Reg {
	r := Reg(f.NumRegs)
	f.NumRegs++
	return r
}

// Entry returns the entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// Clone returns a deep copy of the function under the given new name.
// The memoized size carries over (the body is copied verbatim).
func (f *Func) Clone(qname string) *Func {
	nf := *f
	nf.QName = qname
	nf.ParamNames = append([]string(nil), f.ParamNames...)
	nf.Blocks = make([]*Block, len(f.Blocks))
	for i, b := range f.Blocks {
		nf.Blocks[i] = b.Clone()
	}
	return &nf
}

// Renumber re-assigns Block.Index fields to match slice positions.
// Transformations that reorder or remove blocks must call it.
func (f *Func) Renumber(remap func(old, new int)) {
	for i, b := range f.Blocks {
		if remap != nil && b.Index != i {
			remap(b.Index, i)
		}
		b.Index = i
	}
}

// Global is a module-level variable occupying Size words of the flat data
// memory, optionally with initial values (remaining words are zero).
type Global struct {
	Name     string
	Module   string
	QName    string // canonical program-unique name
	Static   bool
	Promoted bool // static promoted to global scope (paper: unique renaming)
	Size     int64
	Init     []int64
	Pos      source.Pos
}

// Module is a compilation unit: the unit of separate compilation in the
// paper's traditional path, and the unit stored in isom files on the
// link-time path.
type Module struct {
	Name    string
	Globals []*Global
	Funcs   []*Func
	// Externs records the arity each extern declaration promised, keyed
	// by source-level name; used for gross-mismatch legality checks.
	Externs map[string]ExternSig
}

// ExternSig is the signature promised by an extern declaration.
type ExternSig struct {
	NumParams int
	Varargs   bool
}

// Program is a whole program: every module plus symbol tables built by
// Resolve.
type Program struct {
	Modules []*Module

	funcs   map[string]*Func   // by QName
	globals map[string]*Global // by QName
}

// NewProgram assembles a program from modules. Call Resolve before use.
func NewProgram(mods ...*Module) *Program {
	return &Program{Modules: mods}
}

// Funcs iterates over every function in module order.
func (p *Program) Funcs(f func(*Func) bool) {
	for _, m := range p.Modules {
		for _, fn := range m.Funcs {
			if !f(fn) {
				return
			}
		}
	}
}

// AllFuncs returns every function in module order.
func (p *Program) AllFuncs() []*Func {
	var out []*Func
	for _, m := range p.Modules {
		out = append(out, m.Funcs...)
	}
	return out
}

// Func looks up a function by canonical name.
func (p *Program) Func(qname string) *Func { return p.funcs[qname] }

// Global looks up a global by canonical name.
func (p *Program) Global(qname string) *Global { return p.globals[qname] }

// Module returns the module with the given name, or nil.
func (p *Program) Module(name string) *Module {
	for _, m := range p.Modules {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// AddFunc inserts fn into its module and the symbol table. The function's
// QName must be unique.
func (p *Program) AddFunc(fn *Func) error {
	if _, dup := p.funcs[fn.QName]; dup {
		return fmt.Errorf("ir: duplicate function %q", fn.QName)
	}
	m := p.Module(fn.Module)
	if m == nil {
		return fmt.Errorf("ir: function %q names unknown module %q", fn.QName, fn.Module)
	}
	m.Funcs = append(m.Funcs, fn)
	p.funcs[fn.QName] = fn
	return nil
}

// RemoveFunc deletes fn from its module and the symbol table.
func (p *Program) RemoveFunc(fn *Func) {
	delete(p.funcs, fn.QName)
	m := p.Module(fn.Module)
	if m == nil {
		return
	}
	for i, g := range m.Funcs {
		if g == fn {
			m.Funcs = append(m.Funcs[:i], m.Funcs[i+1:]...)
			return
		}
	}
}

// Clone returns a deep copy of the program: modules, functions, globals
// and freshly built symbol tables. The receiver must be resolved; the
// copy is resolved too (all names are already canonical). The compilation
// cache uses Clone to hand each compile a private copy of a memoized
// front-end result, so concurrent compiles never share mutable IR.
func (p *Program) Clone() *Program {
	np := &Program{
		Modules: make([]*Module, len(p.Modules)),
		funcs:   make(map[string]*Func, len(p.funcs)),
		globals: make(map[string]*Global, len(p.globals)),
	}
	for i, m := range p.Modules {
		nm := &Module{
			Name:    m.Name,
			Globals: make([]*Global, len(m.Globals)),
			Funcs:   make([]*Func, len(m.Funcs)),
		}
		if m.Externs != nil {
			nm.Externs = make(map[string]ExternSig, len(m.Externs))
			for k, v := range m.Externs {
				nm.Externs[k] = v
			}
		}
		for j, g := range m.Globals {
			ng := *g
			ng.Init = append([]int64(nil), g.Init...)
			nm.Globals[j] = &ng
			np.globals[ng.QName] = &ng
		}
		for j, f := range m.Funcs {
			nf := f.Clone(f.QName)
			nm.Funcs[j] = nf
			np.funcs[nf.QName] = nf
		}
		np.Modules[i] = nm
	}
	return np
}

// TotalSize returns the instruction count of the whole program.
func (p *Program) TotalSize() int {
	n := 0
	p.Funcs(func(f *Func) bool { n += f.Size(); return true })
	return n
}

// QualName forms the canonical name for a symbol defined in module mod.
func QualName(mod, name string) string { return mod + ":" + name }

// AssignSites gives every call instruction in scope a unique Site ID,
// starting from next+1, and returns the last ID assigned. HLO calls this
// at the start of each pass so that edges can be relocated after
// arbitrary CFG surgery.
func (p *Program) AssignSites(next int32) int32 {
	p.Funcs(func(f *Func) bool {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Op == Call || in.Op == ICall {
					next++
					in.Site = next
				}
			}
		}
		return true
	})
	return next
}

// FindSite locates the call instruction with the given Site ID inside f,
// returning its block and instruction index, or ok=false if the site no
// longer exists (deleted by optimization).
func FindSite(f *Func, site int32) (b *Block, idx int, ok bool) {
	for _, blk := range f.Blocks {
		for i := range blk.Instrs {
			if blk.Instrs[i].Site == site {
				return blk, i, true
			}
		}
	}
	return nil, 0, false
}

// ClearSites zeroes the Site IDs of every instruction in the block list
// (used on freshly copied bodies so IDs stay unique).
func ClearSites(blocks []*Block) {
	for _, b := range blocks {
		for i := range b.Instrs {
			b.Instrs[i].Site = 0
		}
	}
}
