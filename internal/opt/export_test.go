package opt

// FoldInstr exposes foldInstr to the external test package, whose
// reference constant propagator (constprop_ref_test.go) shares it.
var FoldInstr = foldInstr

// ConstPropWork is ConstProp adding its block visits and met cells to w.
var ConstPropWork = constProp

// LocalCSEWork is LocalCSE adding the facts its kills examined to w.
var LocalCSEWork = localCSE
