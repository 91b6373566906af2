package pa8000

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
)

// Config sets the machine parameters. Zero fields take defaults chosen
// so the synthetic benchmarks sit near the same cache boundaries the
// SPEC programs sat near on the real machine.
type Config struct {
	ICacheBytes int // default 8 KiB (the PA8000 had a large off-chip I-cache)
	ICacheLine  int // default 32 B
	ICacheAssoc int // default 2
	DCacheBytes int // default 4 KiB
	DCacheLine  int // default 32 B
	DCacheAssoc int // default 2

	MissPenalty       int64 // default 20 cycles
	MispredictPenalty int64 // default 5 cycles
	BHTEntries        int   // default 256
	IssueWidth        int   // default 2 (in-order)

	MemWords int64 // default 1<<22
	Fuel     int64 // instruction budget; default 2e9
}

func (c Config) withDefaults() Config {
	def := func(p *int, v int) {
		if *p == 0 {
			*p = v
		}
	}
	def64 := func(p *int64, v int64) {
		if *p == 0 {
			*p = v
		}
	}
	def(&c.ICacheBytes, 8192)
	def(&c.ICacheLine, 32)
	def(&c.ICacheAssoc, 2)
	def(&c.DCacheBytes, 4096)
	def(&c.DCacheLine, 32)
	def(&c.DCacheAssoc, 2)
	def64(&c.MissPenalty, 20)
	def64(&c.MispredictPenalty, 5)
	def(&c.BHTEntries, 256)
	def(&c.IssueWidth, 2)
	def64(&c.MemWords, 1<<22)
	def64(&c.Fuel, 2_000_000_000)
	return c
}

// Stats is the simulator's report: the raw counters behind Figure 7.
type Stats struct {
	Cycles int64
	Instrs int64 // instructions retired

	IAccesses int64
	IMisses   int64
	DAccesses int64
	DMisses   int64

	Branches    int64 // all control-transfer instructions
	Predicted   int64 // prediction-capable branch executions
	Mispredicts int64
	Calls       int64
	Returns     int64

	Output   []int64
	ExitCode int64
}

// CPI returns cycles per retired instruction.
func (s *Stats) CPI() float64 {
	if s.Instrs == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instrs)
}

// IMissRate returns I-cache misses per access.
func (s *Stats) IMissRate() float64 {
	if s.IAccesses == 0 {
		return 0
	}
	return float64(s.IMisses) / float64(s.IAccesses)
}

// DMissRate returns D-cache misses per access.
func (s *Stats) DMissRate() float64 {
	if s.DAccesses == 0 {
		return 0
	}
	return float64(s.DMisses) / float64(s.DAccesses)
}

// BranchMissRate returns mispredicts per prediction-capable branch.
func (s *Stats) BranchMissRate() float64 {
	if s.Predicted == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Predicted)
}

// ErrFuel is returned when the cycle budget is exhausted.
var ErrFuel = errors.New("pa8000: fuel exhausted")

// ctxStride is how many retired instructions pass between context
// checks in RunCtx: frequent enough that cancellation latency is
// microseconds, rare enough that the per-instruction cost is one AND
// and one predictable branch.
const ctxStride = 8192

// referenceEngine, when set, routes every RunCtx through the retired
// closure-based loop in ref.go instead of the predecoded engine. It
// exists for differential testing (hlofuzz's equivalence oracle, the
// CI byte-diff of Table 1) and A/B benchmarking, never for production.
var referenceEngine atomic.Bool

// SetReferenceEngine selects which engine RunCtx uses: true for the
// reference (slow, allocating) loop, false (the default) for the
// predecoded pooled engine. The two are bit-equivalent by contract.
func SetReferenceEngine(on bool) { referenceEngine.Store(on) }

// Run executes a linked program with the given inputs.
func Run(p *Program, cfg Config, inputs []int64) (*Stats, error) {
	return RunCtx(context.Background(), p, cfg, inputs)
}

// RunCtx is Run with cancellation: the simulation checks ctx at
// instruction-budget boundaries (every ctxStride retired instructions)
// and returns ctx.Err() — wrapped, so errors.Is sees context.Canceled
// or context.DeadlineExceeded — when the context dies mid-run.
func RunCtx(ctx context.Context, p *Program, cfg Config, inputs []int64) (*Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Fail fast on a dead context: a short simulation could otherwise
	// finish between stride checks and mask the cancellation.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("pa8000: canceled before start: %w", err)
	}
	if err := checkData(p, cfg); err != nil {
		return nil, err
	}
	if referenceEngine.Load() {
		return runReference(ctx, p, cfg, inputs)
	}
	return runEngine(ctx, p, cfg, inputs)
}

// checkData rejects static data that does not fit in the machine's
// memory, before either engine copies it there. Both engines call it,
// so they fail with the same message.
func checkData(p *Program, cfg Config) error {
	mem := cfg.withDefaults().MemWords
	if p.DataLen > mem {
		return fmt.Errorf("pa8000: static data of %d words exceeds memory of %d words", p.DataLen, mem)
	}
	for _, di := range p.InitData {
		if di.Addr < 0 || di.Addr+int64(len(di.Vals)) > mem {
			return fmt.Errorf("pa8000: initialized data at [%d, %d) outside memory of %d words",
				di.Addr, di.Addr+int64(len(di.Vals)), mem)
		}
	}
	return nil
}

// RunKey digests everything a run of p on cfg with inputs reads: the
// code (every MInstr field), the entry point, the static data size and
// initial values, the inputs, and cfg with its defaults applied, each
// variable-length part length-prefixed. Runs with one key end with
// equal Stats or the same error, whichever engine runs them, so a
// caller may memoize a run on its key. FuncAddr, GlobalAddr and
// FuncOfAddr are left out: neither engine reads them.
func RunKey(p *Program, cfg Config, inputs []int64) string {
	h := sha256.New()
	buf := make([]byte, 0, 4096)
	put := func(v int64) {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		if len(buf) >= 4096 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	putBytes := func(s string) {
		put(int64(len(s)))
		buf = append(buf, s...)
	}
	c := cfg.withDefaults()
	for _, v := range [...]int64{
		int64(c.ICacheBytes), int64(c.ICacheLine), int64(c.ICacheAssoc),
		int64(c.DCacheBytes), int64(c.DCacheLine), int64(c.DCacheAssoc),
		c.MissPenalty, c.MispredictPenalty, int64(c.BHTEntries), int64(c.IssueWidth),
		c.MemWords, c.Fuel,
	} {
		put(v)
	}
	put(int64(len(p.Code)))
	for i := range p.Code {
		in := &p.Code[i]
		put(int64(in.Op)<<24 | int64(in.Rd)<<16 | int64(in.Rs)<<8 | int64(in.Rt))
		put(in.Imm)
		put(int64(in.Target))
		putBytes(in.Sym)
	}
	put(int64(p.Entry))
	put(p.DataLen)
	put(int64(len(p.InitData)))
	for _, di := range p.InitData {
		put(di.Addr)
		put(int64(len(di.Vals)))
		for _, v := range di.Vals {
			put(v)
		}
	}
	put(int64(len(inputs)))
	for _, v := range inputs {
		put(v)
	}
	h.Write(buf)
	return string(h.Sum(nil))
}

// depInfo extracts the registers read and written for the pairing check.
func depInfo(in *MInstr) (reads [2]Reg, writes Reg, isMem bool) {
	reads = [2]Reg{0xff, 0xff}
	writes = 0xff
	switch in.Op {
	case MNop, MMovI, MJmp:
		if in.Op == MMovI {
			writes = in.Rd
		}
	case MMov, MNeg, MNot, MAddI:
		reads[0] = in.Rs
		writes = in.Rd
	case MLd:
		reads[0] = in.Rs
		writes = in.Rd
		isMem = true
	case MSt:
		reads[0] = in.Rs
		reads[1] = in.Rt
		isMem = true
	case MBz, MBnz, MCallR:
		reads[0] = in.Rs
	case MCall, MRet, MSys, MHalt:
	default:
		reads[0] = in.Rs
		reads[1] = in.Rt
		writes = in.Rd
	}
	return
}

func alu(op MOp, x, y int64) (int64, error) {
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	switch op {
	case MAdd:
		return x + y, nil
	case MSub:
		return x - y, nil
	case MMul:
		return x * y, nil
	case MDiv:
		if y == 0 {
			return 0, nil
		}
		return x / y, nil
	case MRem:
		if y == 0 {
			return x, nil
		}
		return x % y, nil
	case MAnd:
		return x & y, nil
	case MOr:
		return x | y, nil
	case MXor:
		return x ^ y, nil
	case MShl:
		return x << (uint64(y) & 63), nil
	case MShr:
		return x >> (uint64(y) & 63), nil
	case MCmpEQ:
		return b2i(x == y), nil
	case MCmpNE:
		return b2i(x != y), nil
	case MCmpLT:
		return b2i(x < y), nil
	case MCmpLE:
		return b2i(x <= y), nil
	case MCmpGT:
		return b2i(x > y), nil
	case MCmpGE:
		return b2i(x >= y), nil
	}
	return 0, fmt.Errorf("pa8000: unknown op %s", op)
}
