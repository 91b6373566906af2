package pa8000

import (
	"reflect"
	"testing"
)

// keyProgram is a small linked program that sets every field RunKey
// reads and every field it ignores.
func keyProgram() *Program {
	return &Program{
		Code: []MInstr{
			{Op: MCall, Target: 2, Sym: "f"},
			{Op: MHalt},
			{Op: MLd, Rd: 3, Rs: RZero, Rt: 4, Imm: 16, Sym: "g"},
			{Op: MRet},
		},
		Entry:      0,
		DataLen:    20,
		InitData:   []DataInit{{Addr: 16, Vals: []int64{1, 2}}},
		FuncAddr:   map[string]int{"f": 2},
		GlobalAddr: map[string]int64{"g": 16},
		FuncOfAddr: map[int]string{2: "f"},
	}
}

// bumpField changes field i of the addressable struct v.
func bumpField(t *testing.T, v reflect.Value, i int) {
	t.Helper()
	f := v.Field(i)
	switch f.Kind() {
	case reflect.Int, reflect.Int64:
		f.SetInt(f.Int() + 1)
	case reflect.Uint8:
		f.SetUint(f.Uint() + 1)
	case reflect.String:
		f.SetString(f.String() + "x")
	case reflect.Slice:
		f.Set(reflect.Append(f, reflect.Zero(f.Type().Elem())))
	default:
		t.Fatalf("%s.%s: kind %s has no bump", v.Type(), v.Type().Field(i).Name, f.Kind())
	}
}

// checkClassified fails for every field of typ that is in neither set,
// so a field added to a type RunKey digests fails until it is keyed or
// listed as ignored.
func checkClassified(t *testing.T, typ reflect.Type, keyed, ignored map[string]bool) {
	t.Helper()
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if !keyed[name] && !ignored[name] {
			t.Errorf("%s.%s is not classified: add it to RunKey and to this test's keyed set, or to its ignored set", typ, name)
		}
	}
}

// TestRunKeyCoverage pins RunKey as the one statement of what a run
// reads: every field either engine reads changes the key, the link-time
// maps do not, and Config{} keys like its explicit defaults.
func TestRunKeyCoverage(t *testing.T) {
	inputs := []int64{4, 5}
	base := RunKey(keyProgram(), Config{}, inputs)

	if got := RunKey(keyProgram(), Config{}.withDefaults(), inputs); got != base {
		t.Error("Config{} and its explicit defaults key differently")
	}

	all := func(typ reflect.Type) map[string]bool {
		m := map[string]bool{}
		for i := 0; i < typ.NumField(); i++ {
			m[typ.Field(i).Name] = true
		}
		return m
	}
	// Every field of Config, MInstr and DataInit is read by a run.
	for _, typ := range []reflect.Type{reflect.TypeOf(Config{}), reflect.TypeOf(MInstr{}), reflect.TypeOf(DataInit{})} {
		checkClassified(t, typ, all(typ), nil)
	}
	for i := 0; i < reflect.TypeOf(Config{}).NumField(); i++ {
		cfg := Config{}.withDefaults()
		bumpField(t, reflect.ValueOf(&cfg).Elem(), i)
		if RunKey(keyProgram(), cfg, inputs) == base {
			t.Errorf("Config.%s does not change the key", reflect.TypeOf(cfg).Field(i).Name)
		}
	}
	for i := 0; i < reflect.TypeOf(MInstr{}).NumField(); i++ {
		p := keyProgram()
		bumpField(t, reflect.ValueOf(&p.Code[2]).Elem(), i)
		if RunKey(p, Config{}, inputs) == base {
			t.Errorf("MInstr.%s does not change the key", reflect.TypeOf(MInstr{}).Field(i).Name)
		}
	}
	for i := 0; i < reflect.TypeOf(DataInit{}).NumField(); i++ {
		p := keyProgram()
		bumpField(t, reflect.ValueOf(&p.InitData[0]).Elem(), i)
		if RunKey(p, Config{}, inputs) == base {
			t.Errorf("DataInit.%s does not change the key", reflect.TypeOf(DataInit{}).Field(i).Name)
		}
	}

	keyed := map[string]func(*Program){
		"Code":     func(p *Program) { p.Code = append(p.Code, MInstr{}) },
		"Entry":    func(p *Program) { p.Entry = 2 },
		"DataLen":  func(p *Program) { p.DataLen++ },
		"InitData": func(p *Program) { p.InitData = append(p.InitData, DataInit{Addr: 18}) },
	}
	ignored := map[string]func(*Program){
		"FuncAddr":   func(p *Program) { p.FuncAddr["h"] = 3 },
		"GlobalAddr": func(p *Program) { p.GlobalAddr["h"] = 17 },
		"FuncOfAddr": func(p *Program) { p.FuncOfAddr[3] = "h" },
	}
	names := func(m map[string]func(*Program)) map[string]bool {
		out := map[string]bool{}
		for k := range m {
			out[k] = true
		}
		return out
	}
	checkClassified(t, reflect.TypeOf(Program{}), names(keyed), names(ignored))
	for name, mutate := range keyed {
		p := keyProgram()
		mutate(p)
		if RunKey(p, Config{}, inputs) == base {
			t.Errorf("Program.%s does not change the key", name)
		}
	}
	for name, mutate := range ignored {
		p := keyProgram()
		mutate(p)
		if RunKey(p, Config{}, inputs) != base {
			t.Errorf("Program.%s changes the key; neither engine reads it", name)
		}
	}

	for _, in := range [][]int64{nil, {4}, {4, 6}, {4, 5, 0}} {
		if RunKey(keyProgram(), Config{}, in) == base {
			t.Errorf("inputs %v key like %v", in, inputs)
		}
	}
	// Length prefixes: a value moved across the boundary of two data
	// ranges is a different program.
	p := keyProgram()
	p.InitData = []DataInit{{Addr: 16, Vals: []int64{1}}, {Addr: 2}}
	q := keyProgram()
	q.InitData = []DataInit{{Addr: 16}, {Addr: 1, Vals: []int64{2}}}
	if RunKey(p, Config{}, inputs) == RunKey(q, Config{}, inputs) {
		t.Error("data ranges with a value moved across their boundary key alike")
	}
}
