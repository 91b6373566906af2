package ir

// RegSet is a dense bitset over a function's virtual registers, shared
// by the dataflow analyses in the optimizer, the outliner and the
// register allocator.
type RegSet []uint64

// NewRegSet returns an empty set sized for n registers.
func NewRegSet(n int32) RegSet { return make(RegSet, (n+63)/64) }

// Has reports membership.
func (s RegSet) Has(r Reg) bool { return s[r/64]&(1<<(uint(r)%64)) != 0 }

// Add inserts r.
func (s RegSet) Add(r Reg) { s[r/64] |= 1 << (uint(r) % 64) }

// Del removes r.
func (s RegSet) Del(r Reg) { s[r/64] &^= 1 << (uint(r) % 64) }

// Clone copies the set.
func (s RegSet) Clone() RegSet {
	n := make(RegSet, len(s))
	copy(n, s)
	return n
}

// UnionInto ors o into s, reporting whether s changed.
func (s RegSet) UnionInto(o RegSet) bool {
	changed := false
	for i := range s {
		if n := s[i] | o[i]; n != s[i] {
			s[i] = n
			changed = true
		}
	}
	return changed
}

// Count returns the number of members.
func (s RegSet) Count() int {
	n := 0
	for _, w := range s {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// Members lists the registers in ascending order.
func (s RegSet) Members() []Reg {
	var out []Reg
	for i, w := range s {
		for b := 0; b < 64; b++ {
			if w&(1<<uint(b)) != 0 {
				out = append(out, Reg(i*64+b))
			}
		}
	}
	return out
}

// Liveness computes per-block live-in and live-out sets of virtual
// registers with the standard backward dataflow.
func Liveness(f *Func) (liveIn, liveOut []RegSet) {
	liveIn = make([]RegSet, len(f.Blocks))
	liveOut = make([]RegSet, len(f.Blocks))
	for i := range f.Blocks {
		liveIn[i] = NewRegSet(f.NumRegs)
		liveOut[i] = NewRegSet(f.NumRegs)
	}
	var uses []Reg
	for {
		changed := false
		for bi := len(f.Blocks) - 1; bi >= 0; bi-- {
			b := f.Blocks[bi]
			out := liveOut[bi]
			ss, n := b.Succs()
			for _, s := range ss[:n] {
				if out.UnionInto(liveIn[s]) {
					changed = true
				}
			}
			in := out.Clone()
			for i := len(b.Instrs) - 1; i >= 0; i-- {
				instr := &b.Instrs[i]
				if instr.HasDst() {
					in.Del(instr.Dst)
				}
				uses = instr.Uses(uses[:0])
				for _, r := range uses {
					in.Add(r)
				}
			}
			if liveIn[bi].UnionInto(in) {
				changed = true
			}
		}
		if !changed {
			return liveIn, liveOut
		}
	}
}
