// Package ipa provides the interprocedural analyses HLO performs after
// buffering all modules: the call graph with the paper's five-way call
// site classification (Figure 5), side-effect/purity analysis (which
// deletes dead calls into do-nothing libraries, the 072.sc curses
// effect), parameter-usage descriptors P(R) and calling-context
// descriptors S(E) (Figure 3's cloning inputs).
package ipa

import (
	"repro/internal/ir"
)

// SiteKind classifies a call site, matching Figure 5 of the paper.
type SiteKind uint8

// Call site classes.
const (
	External     SiteKind = iota // call to a runtime/library routine
	Indirect                     // callee computed at run time
	CrossModule                  // direct call into another module
	WithinModule                 // direct call to another routine in the same module
	Recursive                    // direct call within a call-graph cycle
)

func (k SiteKind) String() string {
	switch k {
	case External:
		return "external"
	case Indirect:
		return "indirect"
	case CrossModule:
		return "cross-module"
	case WithinModule:
		return "within-module"
	case Recursive:
		return "recursive"
	}
	return "?"
}

// Edge is one call site. Block/Index locate the instruction inside the
// caller at graph-build time; any transformation invalidates the graph.
type Edge struct {
	Caller *ir.Func
	Block  *ir.Block
	Index  int      // instruction index within Block
	Callee *ir.Func // nil for External and Indirect sites
	Kind   SiteKind
}

// Instr returns the call instruction of the edge.
func (e *Edge) Instr() *ir.Instr { return &e.Block.Instrs[e.Index] }

// Count returns the profile execution count of the call site (the count
// of its enclosing block).
func (e *Edge) Count() int64 { return e.Block.Count }

// Graph is the program call graph.
type Graph struct {
	Prog      *ir.Program
	Edges     []*Edge
	CalleesOf map[*ir.Func][]*Edge // outgoing edges per caller
	CallersOf map[*ir.Func][]*Edge // incoming direct edges per callee

	// scc[f] identifies the strongly connected component of f in the
	// direct-call graph; inCycle[f] reports membership in a cycle
	// (an SCC of size > 1 or a self loop).
	scc     map[*ir.Func]int
	inCycle map[*ir.Func]bool
}

// Build constructs the call graph of the resolved program.
func Build(p *ir.Program) *Graph {
	g := &Graph{
		Prog:      p,
		CalleesOf: make(map[*ir.Func][]*Edge),
		CallersOf: make(map[*ir.Func][]*Edge),
	}
	for _, m := range p.Modules {
		for _, f := range m.Funcs {
			for _, b := range f.Blocks {
				for i := range b.Instrs {
					in := &b.Instrs[i]
					if in.Op != ir.Call && in.Op != ir.ICall {
						continue
					}
					e := &Edge{Caller: f, Block: b, Index: i}
					switch {
					case in.Op == ir.ICall:
						e.Kind = Indirect
					case ir.IsRuntime(in.Callee):
						e.Kind = External
					default:
						e.Callee = p.Func(in.Callee)
						if e.Callee == nil {
							e.Kind = External
						} else if e.Callee.Module == f.Module {
							e.Kind = WithinModule
						} else {
							e.Kind = CrossModule
						}
					}
					g.Edges = append(g.Edges, e)
					g.CalleesOf[f] = append(g.CalleesOf[f], e)
					if e.Callee != nil {
						g.CallersOf[e.Callee] = append(g.CallersOf[e.Callee], e)
					}
				}
			}
		}
	}
	g.computeSCCs()
	// Reclassify direct edges inside a call-graph cycle as recursive.
	for _, e := range g.Edges {
		if e.Callee == nil {
			continue
		}
		if e.Callee == e.Caller ||
			g.scc[e.Caller] == g.scc[e.Callee] && g.inCycle[e.Caller] {
			e.Kind = Recursive
		}
	}
	return g
}

// InCycle reports whether f participates in a call-graph cycle
// (including direct self recursion).
func (g *Graph) InCycle(f *ir.Func) bool { return g.inCycle[f] }

// SameSCC reports whether two functions are in the same strongly
// connected component.
func (g *Graph) SameSCC(a, b *ir.Func) bool { return g.scc[a] == g.scc[b] }

// PostOrder numbers functions so that callees come before callers
// (cycles broken arbitrarily but deterministically): the bottom-up
// perform schedule of the paper's Figure 4.
func PostOrder(g *Graph) map[*ir.Func]int {
	order := make(map[*ir.Func]int)
	visited := make(map[*ir.Func]bool)
	next := 0
	var visit func(f *ir.Func)
	visit = func(f *ir.Func) {
		if visited[f] {
			return
		}
		visited[f] = true
		for _, e := range g.CalleesOf[f] {
			if e.Callee != nil {
				visit(e.Callee)
			}
		}
		order[f] = next
		next++
	}
	g.Prog.Funcs(func(f *ir.Func) bool {
		visit(f)
		return true
	})
	return order
}

// computeSCCs runs Tarjan's algorithm (iteratively) over the direct-call
// graph.
func (g *Graph) computeSCCs() {
	g.scc = make(map[*ir.Func]int)
	g.inCycle = make(map[*ir.Func]bool)

	index := make(map[*ir.Func]int)
	low := make(map[*ir.Func]int)
	onStack := make(map[*ir.Func]bool)
	var stack []*ir.Func
	next := 0
	sccID := 0

	type frame struct {
		f     *ir.Func
		edges []*Edge
		i     int
	}

	var visit func(root *ir.Func)
	visit = func(root *ir.Func) {
		frames := []frame{{f: root, edges: g.CalleesOf[root]}}
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			fr := &frames[len(frames)-1]
			advanced := false
			for fr.i < len(fr.edges) {
				e := fr.edges[fr.i]
				fr.i++
				w := e.Callee
				if w == nil {
					continue
				}
				if _, seen := index[w]; !seen {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{f: w, edges: g.CalleesOf[w]})
					advanced = true
					break
				} else if onStack[w] && index[w] < low[fr.f] {
					low[fr.f] = index[w]
				}
			}
			if advanced {
				continue
			}
			// fr.f finished.
			if low[fr.f] == index[fr.f] {
				sccID++
				var members []*ir.Func
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					g.scc[w] = sccID
					members = append(members, w)
					if w == fr.f {
						break
					}
				}
				if len(members) > 1 {
					// Every member of a multi-node SCC is in a cycle.
					for _, w := range members {
						g.inCycle[w] = true
					}
				}
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := &frames[len(frames)-1]
				if low[fr.f] < low[parent.f] {
					low[parent.f] = low[fr.f]
				}
			}
		}
	}

	g.Prog.Funcs(func(f *ir.Func) bool {
		if _, seen := index[f]; !seen {
			visit(f)
		}
		return true
	})

	// Self loops are cycles too.
	for _, e := range g.Edges {
		if e.Callee == e.Caller && e.Callee != nil {
			g.inCycle[e.Caller] = true
		}
	}
}

// SiteCounts is one row of Figure 5: the static number of call sites in
// each class.
type SiteCounts struct {
	External     int
	Indirect     int
	CrossModule  int
	WithinModule int
	Recursive    int
}

// Total sums all classes.
func (c SiteCounts) Total() int {
	return c.External + c.Indirect + c.CrossModule + c.WithinModule + c.Recursive
}

// Classify tallies the call-site classes of the program (Figure 5).
func Classify(p *ir.Program) SiteCounts {
	g := Build(p)
	var c SiteCounts
	for _, e := range g.Edges {
		switch e.Kind {
		case External:
			c.External++
		case Indirect:
			c.Indirect++
		case CrossModule:
			c.CrossModule++
		case WithinModule:
			c.WithinModule++
		case Recursive:
			c.Recursive++
		}
	}
	return c
}
