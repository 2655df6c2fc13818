package analysis

import (
	"go/types"
	"sort"
)

// WireCheck proves the one fact about the wire protocol that no test inside
// a single package can see: every Op constant declared in the wire package
// (except the invalid/sentinel ones) is referenced by the client package,
// i.e. has an RPC wrapper. The rest of an opcode's wiring is checked where
// it lives — its name by wire's TestOpString over the dense opNames array,
// its privilege, role and handler by server's TestOpTablePinned over the op
// table — so adding an opcode and forgetting a piece fails a test or this
// lint, never production with a StatusUnsupported.
type WireCheck struct {
	// WirePath and ClientPath are the import paths of the package that
	// declares the opcodes and the one that must wrap each of them.
	WirePath   string
	ClientPath string
	// OpTypeName is the opcode type in the wire package ("Op").
	OpTypeName string
	// SkipOps lists op constants exempt from coverage (OpInvalid).
	// Unexported constants (sentinels like opMax) are always skipped.
	SkipOps []string
}

// DefaultWireCheck is the configuration for this repo's protocol.
func DefaultWireCheck() WireCheck {
	return WireCheck{
		WirePath:   "repro/internal/wire",
		ClientPath: "repro/internal/client",
		OpTypeName: "Op",
		SkipOps:    []string{"OpInvalid"},
	}
}

// Name implements Checker.
func (WireCheck) Name() string { return "wirecheck" }

// Check implements Checker.
func (c WireCheck) Check(prog *Program) []Diagnostic {
	wirePkg, clientPkg := prog.Package(c.WirePath), prog.Package(c.ClientPath)
	if wirePkg == nil || clientPkg == nil {
		return nil // outside the loaded pattern set
	}
	used := make(map[types.Object]bool, len(clientPkg.Info.Uses))
	for _, obj := range clientPkg.Info.Uses {
		used[obj] = true
	}
	var diags []Diagnostic
	for _, op := range c.opConsts(wirePkg) {
		if !used[op] {
			diags = append(diags, Diagnostic{
				Pos:     prog.Fset.Position(op.Pos()),
				Message: op.Name() + " is never referenced by " + c.ClientPath + " (missing RPC wrapper)",
			})
		}
	}
	return diags
}

// opConsts returns the exported, non-skipped constants of the op type,
// in declaration order.
func (c WireCheck) opConsts(pkg *Package) []*types.Const {
	skip := make(map[string]bool, len(c.SkipOps))
	for _, s := range c.SkipOps {
		skip[s] = true
	}
	var ops []*types.Const
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		cst, ok := scope.Lookup(name).(*types.Const)
		if !ok || !cst.Exported() || skip[name] {
			continue
		}
		named, ok := cst.Type().(*types.Named)
		if !ok || named.Obj().Pkg() != pkg.Types || named.Obj().Name() != c.OpTypeName {
			continue
		}
		ops = append(ops, cst)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].Pos() < ops[j].Pos() })
	return ops
}
