package pa8000

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// The predecoded engine's contract is bit-equivalence with the
// reference loop: same Stats counters, same output, same error text.
// These tests enforce it directly; hlofuzz's engine oracle enforces it
// on every fuzz seed over whole compiled programs.

// runBoth executes p on both engines and fails the test on any
// divergence in stats, output, or error.
func runBoth(t *testing.T, label string, p *Program, cfg Config, inputs []int64) {
	t.Helper()
	runBothCtx(t, label, context.Background, p, cfg, inputs)
}

// runBothCtx is runBoth with a fresh context from newCtx for each
// engine. It returns the reference's error.
func runBothCtx(t *testing.T, label string, newCtx func() context.Context, p *Program, cfg Config, inputs []int64) error {
	t.Helper()
	ref, refErr := RunReferenceCtx(newCtx(), p, cfg, inputs)
	got, gotErr := RunCtx(newCtx(), p, cfg, inputs)
	if (refErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: error divergence: reference=%v engine=%v", label, refErr, gotErr)
	}
	if refErr != nil {
		if refErr.Error() != gotErr.Error() {
			t.Fatalf("%s: error text divergence:\n  reference: %v\n  engine:    %v", label, refErr, gotErr)
		}
		if (refErr == ErrFuel) != (gotErr == ErrFuel) {
			t.Fatalf("%s: ErrFuel identity divergence: reference=%v engine=%v", label, refErr, gotErr)
		}
		if errors.Is(refErr, context.Canceled) != errors.Is(gotErr, context.Canceled) {
			t.Fatalf("%s: cancellation wrapping divergence: reference=%v engine=%v", label, refErr, gotErr)
		}
		return refErr
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("%s: stats divergence:\n  reference: %+v\n  engine:    %+v", label, ref, got)
	}
	return nil
}

// engineConfigs exercises the geometry corners: defaults, direct-mapped
// tiny caches, non-power-of-two lines (disables the fast-path shift),
// high associativity, non-power-of-two BHT size, issue widths 1/3, and
// power-of-two lines over non-power-of-two set counts.
func engineConfigs() []Config {
	small := int64(1 << 12)
	return []Config{
		{MemWords: small, Fuel: 50_000},
		{MemWords: small, Fuel: 50_000,
			ICacheBytes: 256, ICacheLine: 16, ICacheAssoc: 1,
			DCacheBytes: 128, DCacheLine: 16, DCacheAssoc: 1},
		{MemWords: small, Fuel: 50_000,
			ICacheLine: 24, DCacheLine: 24, ICacheAssoc: 4, DCacheAssoc: 4,
			BHTEntries: 7, IssueWidth: 1},
		{MemWords: small, Fuel: 50_000,
			IssueWidth: 3, MissPenalty: 3, MispredictPenalty: 2},
		// 6 I-cache sets (768 B, 4-way) and 10 D-cache sets (960 B,
		// 3-way): the resident map's victimWay takes its modulo path and
		// general victim loop, and the D-cache probe its loop.
		{MemWords: small, Fuel: 50_000,
			ICacheBytes: 768, ICacheAssoc: 4,
			DCacheBytes: 960, DCacheAssoc: 3},
	}
}

func TestEngineEquivalenceHandwritten(t *testing.T) {
	cases := map[string][]MInstr{
		"arith-halt": {
			{Op: MMovI, Rd: 3, Imm: 21},
			{Op: MAdd, Rd: 4, Rs: 3, Rt: 3},
			{Op: MMov, Rd: RRet, Rs: 4},
			{Op: MHalt},
		},
		"zero-reg": {
			{Op: MMovI, Rd: RZero, Imm: 99},
			{Op: MAdd, Rd: RZero, Rs: 3, Rt: 3},
			{Op: MMov, Rd: RRet, Rs: RZero},
			{Op: MHalt},
		},
		"call-ret": {
			{Op: MCall, Target: 3},
			{Op: MMov, Rd: RRet, Rs: 5},
			{Op: MHalt},
			{Op: MMovI, Rd: 5, Imm: 7},
			{Op: MRet},
		},
		// callr through the return-address register: RRA is written
		// before the target read, so this jumps to pc+1.
		"callr-rra": {
			{Op: MCallR, Rs: RRA},
			{Op: MHalt},
		},
		"mem-syscalls": {
			{Op: MMovI, Rd: 3, Imm: 100},
			{Op: MMovI, Rd: 4, Imm: 1234},
			{Op: MSt, Rs: 3, Rt: 4, Imm: 8},
			{Op: MLd, Rd: RArg0, Rs: 3, Imm: 8},
			{Op: MSys, Imm: SysPrint},
			{Op: MMovI, Rd: RArg0, Imm: 0},
			{Op: MSys, Imm: SysInput},
			{Op: MMov, Rd: RArg0, Rs: RRet},
			{Op: MSys, Imm: SysHalt},
		},
		"input-out-of-range": {
			{Op: MMovI, Rd: RArg0, Imm: 99},
			{Op: MSys, Imm: SysInput},
			{Op: MMov, Rd: RArg0, Rs: RRet},
			{Op: MSys, Imm: SysNInputs},
			{Op: MHalt},
		},
		"div-rem-zero": {
			{Op: MMovI, Rd: 3, Imm: 17},
			{Op: MMovI, Rd: 4, Imm: 0},
			{Op: MDiv, Rd: 5, Rs: 3, Rt: 4},
			{Op: MRem, Rd: 6, Rs: 3, Rt: 4},
			{Op: MAdd, Rd: RRet, Rs: 5, Rt: 6},
			{Op: MHalt},
		},
		"shift-masking": {
			{Op: MMovI, Rd: 3, Imm: 1},
			{Op: MMovI, Rd: 4, Imm: 67}, // 67 & 63 = 3
			{Op: MShl, Rd: 5, Rs: 3, Rt: 4},
			{Op: MMovI, Rd: 6, Imm: -1},
			{Op: MShr, Rd: 7, Rs: 6, Rt: 4},
			{Op: MAdd, Rd: RRet, Rs: 5, Rt: 7},
			{Op: MHalt},
		},
		"not-neg": {
			{Op: MMovI, Rd: 3, Imm: 5},
			{Op: MNot, Rd: 4, Rs: 3},
			{Op: MNot, Rd: 5, Rs: 4},
			{Op: MNeg, Rd: 6, Rs: 3},
			{Op: MAdd, Rd: RRet, Rs: 5, Rt: 6},
			{Op: MHalt},
		},
		"load-invalid":     {{Op: MLd, Rd: 3, Rs: RZero, Imm: -5}, {Op: MHalt}},
		"store-invalid":    {{Op: MMovI, Rd: 3, Imm: 1 << 40}, {Op: MSt, Rs: 3, Rt: 3}, {Op: MHalt}},
		"jmp-out-of-range": {{Op: MJmp, Target: 999}},
		"callr-invalid":    {{Op: MMovI, Rd: 3, Imm: -1}, {Op: MCallR, Rs: 3}, {Op: MHalt}},
		"ret-invalid":      {{Op: MMovI, Rd: RRA, Imm: 999}, {Op: MRet}},
		"fuel-exhaustion":  {{Op: MJmp, Target: 0}},
		"unknown-op":       {{Op: MOp(99), Rd: 3, Rs: 4, Rt: 5}, {Op: MHalt}},
		"unknown-syscall":  {{Op: MSys, Imm: 17}, {Op: MHalt}},
	}
	// A branchy loop that trains the BHT and streams through memory
	// (exercises LRU eviction and multi-page dirtying).
	var loop []MInstr
	loop = append(loop,
		MInstr{Op: MMovI, Rd: 3, Imm: 0},        // i
		MInstr{Op: MMovI, Rd: 4, Imm: 3000},     // limit (crosses dcache capacity)
		MInstr{Op: MCmpLT, Rd: 5, Rs: 3, Rt: 4}, // 2: loop head
		MInstr{Op: MBz, Rs: 5, Target: 9},
		MInstr{Op: MSt, Rs: 3, Rt: 3, Imm: 64},
		MInstr{Op: MLd, Rd: 6, Rs: 3, Imm: 64},
		MInstr{Op: MAdd, Rd: 7, Rs: 7, Rt: 6},
		MInstr{Op: MAddI, Rd: 3, Rs: 3, Imm: 1},
		MInstr{Op: MJmp, Target: 2},
		MInstr{Op: MMov, Rd: RRet, Rs: 7}, // 9: exit
		MInstr{Op: MHalt},
	)
	cases["bht-loop-stream"] = loop

	inputs := []int64{55, -3, 0}
	for name, code := range cases {
		p := &Program{Code: code, Entry: 0}
		for ci, cfg := range engineConfigs() {
			runBoth(t, fmt.Sprintf("%s/cfg%d", name, ci), p, cfg, inputs)
		}
	}
}

func TestEngineEquivalenceInitData(t *testing.T) {
	p := &Program{
		Code: []MInstr{
			{Op: MLd, Rd: 3, Rs: RZero, Imm: 32},
			{Op: MLd, Rd: 4, Rs: RZero, Imm: 35},
			{Op: MAdd, Rd: RRet, Rs: 3, Rt: 4},
			{Op: MHalt},
		},
		InitData: []DataInit{{Addr: 32, Vals: []int64{7, 0, 0, 35}}},
	}
	for ci, cfg := range engineConfigs() {
		runBoth(t, fmt.Sprintf("initdata/cfg%d", ci), p, cfg, nil)
	}
}

// randInstr generates instructions with register numbers < 32 (larger
// ones panic identically in both engines, which DeepEqual can't see)
// and with occasional wild immediates/targets/opcodes to reach every
// error path.
func randInstr(r *rand.Rand, codeLen int) MInstr {
	ops := []MOp{
		MNop, MMovI, MMov, MAdd, MSub, MMul, MDiv, MRem, MAnd, MOr, MXor,
		MShl, MShr, MCmpEQ, MCmpNE, MCmpLT, MCmpLE, MCmpGT, MCmpGE,
		MAddI, MNeg, MNot, MLd, MSt, MJmp, MBz, MBnz, MCall, MCallR, MRet,
		MSys, MHalt,
	}
	in := MInstr{
		Op:     ops[r.Intn(len(ops))],
		Rd:     Reg(r.Intn(32)),
		Rs:     Reg(r.Intn(32)),
		Rt:     Reg(r.Intn(32)),
		Imm:    int64(r.Intn(256) - 32),
		Target: r.Intn(codeLen+2) - 1, // includes -1 and codeLen+1
	}
	if r.Intn(40) == 0 {
		in.Op = MOp(200) // unknown op
	}
	switch in.Op {
	case MSys:
		in.Imm = int64(r.Intn(6)) // includes two invalid selectors
	case MLd, MSt:
		if r.Intn(2) == 0 {
			in.Rs = RZero // absolute addressing: usually valid
		}
		if r.Intn(10) == 0 {
			in.Imm = r.Int63() - (1 << 62) // wild address
		} else {
			in.Imm = int64(r.Intn(4000))
		}
	case MMovI:
		in.Imm = int64(r.Intn(1<<16)) - (1 << 15)
	}
	return in
}

func TestEngineEquivalenceRandom(t *testing.T) {
	const programs = 300
	configs := engineConfigs()
	r := rand.New(rand.NewSource(80001))
	for pi := 0; pi < programs; pi++ {
		n := 8 + r.Intn(48)
		code := make([]MInstr, n)
		for i := range code {
			code[i] = randInstr(r, n)
		}
		p := &Program{Code: code, Entry: 0}
		if r.Intn(2) == 0 {
			vals := make([]int64, 1+r.Intn(16))
			for i := range vals {
				vals[i] = r.Int63n(2000) - 1000
			}
			p.InitData = []DataInit{{Addr: int64(r.Intn(128)), Vals: vals}}
		}
		var inputs []int64
		for i := r.Intn(4); i > 0; i-- {
			inputs = append(inputs, r.Int63n(100)-50)
		}
		cfg := configs[pi%len(configs)]
		runBoth(t, fmt.Sprintf("random/%d", pi), p, cfg, inputs)
	}
}

// cancelAfterFirstPoll is a context whose Err is nil on its first call
// and context.Canceled from then on. RunCtx spends the first call on its
// start-up check, so each engine sees the cancellation at its first
// stride poll: the reference at the first ctxStride boundary, the
// predecoded engine at the first run that contains one. That is the
// same instruction however often either engine polls.
type cancelAfterFirstPoll struct {
	context.Context
	polls int
}

func (c *cancelAfterFirstPoll) Err() error {
	c.polls++
	if c.polls == 1 {
		return nil
	}
	return context.Canceled
}

// TestEngineCancelMidRun: a cancellation seen at a stride boundary
// stops both engines before the same instruction, with the same text
// and instruction count. Fuel = m·ctxStride + j + 1 puts the first
// boundary before instruction j, inside the first few runs of these
// short random programs.
func TestEngineCancelMidRun(t *testing.T) {
	const programs = 3000
	configs := engineConfigs()
	r := rand.New(rand.NewSource(80002))
	newCtx := func() context.Context { return &cancelAfterFirstPoll{Context: context.Background()} }
	canceled := 0
	for pi := 0; pi < programs; pi++ {
		n := 8 + r.Intn(48)
		code := make([]MInstr, n)
		for i := range code {
			code[i] = randInstr(r, n)
		}
		p := &Program{Code: code, Entry: 0}
		var inputs []int64
		for i := r.Intn(4); i > 0; i-- {
			inputs = append(inputs, r.Int63n(100)-50)
		}
		cfg := configs[pi%len(configs)]
		cfg.Fuel = int64(r.Intn(3))*ctxStride + int64(r.Intn(40)) + 1
		err := runBothCtx(t, fmt.Sprintf("cancel/%d", pi), newCtx, p, cfg, inputs)
		if errors.Is(err, context.Canceled) {
			canceled++
		}
	}
	t.Logf("%d of %d runs canceled", canceled, programs)
	if canceled < programs/5 {
		t.Fatalf("only %d of %d runs were canceled; the test no longer reaches the stride boundary", canceled, programs)
	}
}

// TestEngineFuelSweep ends a simulation at every position inside one
// run. The loop body is a single 8-instruction run (7 straight-line
// instructions and a backward bnz), so Fuel 1..40 (0 would mean the
// default) cuts it after each of n = 0..7 instructions, several times
// over. In the second variant a load inside the run leaves memory on
// the third trip, so fuel exhaustion and the load error meet at every
// cut position.
func TestEngineFuelSweep(t *testing.T) {
	const memWords = 1 << 12
	loop := func(ld MInstr) []MInstr {
		return []MInstr{
			{Op: MAddI, Rd: 3, Rs: 3, Imm: 1}, // 0: loop head; r3 counts trips
			{Op: MAdd, Rd: 4, Rs: 4, Rt: 3},
			{Op: MSt, Rs: RZero, Rt: 4, Imm: 100},
			ld,
			{Op: MXor, Rd: 6, Rs: 6, Rt: 5},
			{Op: MMul, Rd: 7, Rs: 3, Rt: 5},
			{Op: MCmpNE, Rd: 8, Rs: 3, Rt: RZero}, // feeds the branch
			{Op: MBnz, Rs: 8, Target: 0},
		}
	}
	variants := map[string][]MInstr{
		"plain": loop(MInstr{Op: MLd, Rd: 5, Rs: RZero, Imm: 100}),
		// r3 + memWords-3 is memWords on the third trip.
		"invalid-load": loop(MInstr{Op: MLd, Rd: 5, Rs: 3, Imm: memWords - 3}),
	}
	for name, code := range variants {
		p := &Program{Code: code, Entry: 0}
		for ci, cfg := range engineConfigs() {
			cfg.MemWords = memWords
			for fuel := int64(1); fuel <= 40; fuel++ {
				cfg.Fuel = fuel
				runBoth(t, fmt.Sprintf("%s/cfg%d/fuel%d", name, ci, fuel), p, cfg, nil)
			}
		}
	}
}

func TestSetReferenceEngine(t *testing.T) {
	p := &Program{Code: []MInstr{
		{Op: MMovI, Rd: RRet, Imm: 42},
		{Op: MHalt},
	}}
	SetReferenceEngine(true)
	defer SetReferenceEngine(false)
	st, err := Run(p, Config{MemWords: 1 << 12}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.ExitCode != 42 {
		t.Errorf("reference engine via toggle: exit = %d", st.ExitCode)
	}
}

// TestEnginePoolHygiene: a run must never observe memory dirtied by a
// previous run, even through error exits and InitData.
func TestEnginePoolHygiene(t *testing.T) {
	cfg := Config{MemWords: 1 << 12}
	writer := &Program{Code: []MInstr{
		{Op: MMovI, Rd: 3, Imm: 777},
		{Op: MSt, Rs: RZero, Rt: 3, Imm: 100},
		{Op: MSt, Rs: RZero, Rt: 3, Imm: 4000},
		{Op: MLd, Rd: 4, Rs: RZero, Imm: -1}, // error exit with dirty pages
		{Op: MHalt},
	}}
	seeded := &Program{
		Code:     []MInstr{{Op: MHalt}},
		InitData: []DataInit{{Addr: 50, Vals: []int64{1, 2, 3}}},
	}
	reader := &Program{Code: []MInstr{
		{Op: MLd, Rd: 3, Rs: RZero, Imm: 100},
		{Op: MLd, Rd: 4, Rs: RZero, Imm: 4000},
		{Op: MLd, Rd: 5, Rs: RZero, Imm: 50},
		{Op: MAdd, Rd: 6, Rs: 3, Rt: 4},
		{Op: MAdd, Rd: RRet, Rs: 6, Rt: 5},
		{Op: MHalt},
	}}
	for i := 0; i < 5; i++ {
		if _, err := Run(writer, cfg, nil); err == nil {
			t.Fatal("writer program should fail on its invalid load")
		}
		if _, err := Run(seeded, cfg, nil); err != nil {
			t.Fatal(err)
		}
		st, err := Run(reader, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.ExitCode != 0 {
			t.Fatalf("iteration %d: pooled memory leaked across runs: read %d", i, st.ExitCode)
		}
	}
}

// dispatchProgram builds the microbenchmark workload: a tight loop of
// ALU ops, a trained branch, a store and a load per iteration.
func dispatchProgram(iters int64) *Program {
	return &Program{Code: []MInstr{
		{Op: MMovI, Rd: 3, Imm: 0},
		{Op: MMovI, Rd: 4, Imm: iters},
		{Op: MCmpLT, Rd: 5, Rs: 3, Rt: 4}, // 2: loop head
		{Op: MBz, Rs: 5, Target: 10},
		{Op: MSt, Rs: 3, Rt: 3, Imm: 64},
		{Op: MLd, Rd: 6, Rs: 3, Imm: 64},
		{Op: MXor, Rd: 7, Rs: 7, Rt: 6},
		{Op: MAddI, Rd: 3, Rs: 3, Imm: 1},
		{Op: MMul, Rd: 8, Rs: 3, Rt: 6},
		{Op: MJmp, Target: 2},
		{Op: MMov, Rd: RRet, Rs: 7}, // 10: exit
		{Op: MHalt},
	}}
}

// TestRunSteadyStateAllocs asserts the pooled engine's per-run
// allocation bound: one Stats struct, nothing else, once the pool is
// warm. (The Output copy adds one more for printing programs.)
func TestRunSteadyStateAllocs(t *testing.T) {
	p := dispatchProgram(500)
	cfg := Config{MemWords: 1 << 16}
	if _, err := Run(p, cfg, nil); err != nil { // warm the pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := Run(p, cfg, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1.5 {
		t.Errorf("steady-state allocations per run = %.1f, want <= 1 (Stats only)", allocs)
	}
}

func benchmarkDispatch(b *testing.B, run func(*Program, Config, []int64) (*Stats, error)) {
	p := dispatchProgram(200_000)
	cfg := Config{MemWords: 1 << 20}
	st, err := run(p, cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	instrs := st.Instrs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(p, cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(instrs)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

func BenchmarkDispatchPredecoded(b *testing.B) {
	benchmarkDispatch(b, Run)
}

func BenchmarkDispatchReference(b *testing.B) {
	benchmarkDispatch(b, RunReference)
}

// TestStaticDataBeyondMemory: a program whose static data does not fit
// in memory fails with one error from both engines, rather than
// panicking as either engine copies its initial values.
func TestStaticDataBeyondMemory(t *testing.T) {
	cfg := Config{MemWords: 1 << 12}
	code := []MInstr{{Op: MHalt}}
	for name, p := range map[string]*Program{
		"data length": {Code: code, DataLen: 5000, InitData: []DataInit{{Addr: 4999, Vals: []int64{7}}}},
		"data range":  {Code: code, DataLen: 20, InitData: []DataInit{{Addr: 4095, Vals: []int64{1, 2}}}},
	} {
		runBoth(t, name, p, cfg, nil)
		if _, err := Run(p, cfg, nil); err == nil {
			t.Errorf("%s: ran to completion", name)
		}
	}
}
