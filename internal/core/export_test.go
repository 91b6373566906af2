package core

import (
	"context"

	"repro/internal/ir"
	"repro/internal/opt"
)

// RunPassingOver is RunChecked calling passedOver with every function a
// re-optimization skip rule leaves alone and the purity facts it would
// have been optimized under.
func RunPassingOver(p *ir.Program, scope Scope, opts Options, passedOver func(*ir.Func, opt.Purity)) (*Stats, error) {
	return run(context.Background(), p, scope, opts, passedOver)
}
