package opt_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/driver"
	"repro/internal/ipa"
	"repro/internal/ir"
	"repro/internal/opt"
)

// convInput is one draw of the convergence property: a corpus program
// (Shape 0 picks a specsuite benchmark by Seed, 1 a FuzzConfig randprog
// program, 2 a large-programs one), the stage its functions are taken
// at, and whether Optimize gets ipa.PureFuncs facts or nil.
type convInput struct {
	Seed  uint16
	Shape uint8
	Stop  uint8
	Pure  bool
}

// TestOptimizeConvergedStaysConverged pins what HLO's dirty set relies
// on to skip clean functions: no pass mutates a function without
// reporting a change, and once opt.Optimize reports convergence, a
// second Optimize under the same purity facts reports convergence and
// leaves the function unchanged, and one more round of each pass
// reports no change. The draws come from a fixed source, so a failure
// reproduces.
func TestOptimizeConvergedStaysConverged(t *testing.T) {
	specs := specPrograms()
	cache := driver.NewCache()
	converged, limited := 0, 0
	check := func(in convInput) bool {
		var p corpusProgram
		switch in.Shape % 3 {
		case 0:
			p = specs[int(in.Seed)%len(specs)]
		case 1:
			p = randProgram(int64(in.Seed), true)
		default:
			p = randProgram(int64(in.Seed), false)
		}
		stop := corpusStops[int(in.Stop)%len(corpusStops)]
		prog := stageProgram(t, cache, p, stop)
		var pure opt.Purity
		if in.Pure {
			facts := ipa.PureFuncs(ipa.Build(prog))
			pure = func(callee string) bool { return facts[callee] }
		}
		passes := []struct {
			name string
			run  func(*ir.Func) bool
		}{
			{"ConstProp", opt.ConstProp},
			{"Cleanup", opt.Cleanup},
			{"LocalCSE", opt.LocalCSE},
			{"DCE", func(f *ir.Func) bool { return opt.DCE(f, pure) }},
		}
		// round runs each pass once over f and reports whether every
		// pass that claimed no change left f as it was, and whether any
		// claimed a change.
		round := func(f *ir.Func) (honest, changed bool) {
			for _, pass := range passes {
				before := f.String()
				if pass.run(f) {
					changed = true
				} else if after := f.String(); after != before {
					t.Logf("%s stop %d pure %v %s: %s changed the function without reporting it\nbefore:\n%s\nafter:\n%s",
						p.name, stop, in.Pure, f.QName, pass.name, before, after)
					return false, changed
				}
			}
			return true, changed
		}
		for _, f := range prog.AllFuncs() {
			if honest, _ := round(f); !honest {
				return false
			}
			if !opt.Optimize(f, pure) {
				limited++ // stopped at the round limit: nothing to pin
				continue
			}
			converged++
			before := f.String()
			if !opt.Optimize(f, pure) || f.String() != before {
				t.Logf("%s stop %d pure %v %s: a converged function changed on re-optimization\nbefore:\n%s\nafter:\n%s",
					p.name, stop, in.Pure, f.QName, before, f)
				return false
			}
			if honest, changed := round(f); !honest || changed {
				t.Logf("%s stop %d pure %v %s: one more round changed a converged function\nbefore:\n%s\nafter:\n%s",
					p.name, stop, in.Pure, f.QName, before, f)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
	if converged == 0 {
		t.Fatal("no function converged: the property is vacuous")
	}
	t.Logf("%d functions converged, %d stopped at the round limit", converged, limited)
}
