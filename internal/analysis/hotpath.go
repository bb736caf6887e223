package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// HotpathAlloc enforces the zero-steady-state-allocation invariant:
// a function whose doc comment carries //repro:hotpath — and every
// function it statically calls within the module, transitively — may
// not contain make, new, append, fmt string formatting, slice/map
// composite literals, escaping (&-taken) composite literals, or
// closures that capture local variables by reference.
//
// Exemptions: code inside the arguments of a panic(...) call is the
// failure path and is not checked, and so is the body of an
// `if err != nil` block (a cold error path: allocating the error
// report there is fine, and propagation into callees invoked only on
// that path is cut); a //repro:ignore hotpath-alloc on a call line
// cuts propagation into that callee (the call is audited, e.g. a
// grow-only workspace primitive); a function-level ignore skips the
// function entirely. Calls through interfaces and local function
// values are not followed — keep hot paths direct.
//
// Two extensions cover the internal/simd kernel layer:
//
//   - Assembly stubs (FuncDecls with no body, declared via
//     //go:noescape next to a .s file) have nothing to check and are
//     legal hot-path callees.
//   - Package-level function variables marked //repro:dispatch (the
//     init-bound kernel tables) are legal call targets, and every
//     module function or function literal assigned to one joins the
//     hot-path walk as if it were a root. Calling through an
//     UNMARKED package-level function variable is diagnosed: an
//     indirect call the analyzer cannot follow must be a declared
//     dispatch point.
type HotpathAlloc struct{}

// Name implements Analyzer.
func (HotpathAlloc) Name() string { return "hotpath-alloc" }

// fmtAllocFuncs are the fmt functions that build a string or slice on
// every call; on a hot path they are both an allocation and a hint
// that formatting leaked out of the failure path.
var fmtAllocFuncs = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true, "Errorf": true,
	"Appendf": true, "Append": true, "Appendln": true,
}

// dispatchTable indexes the //repro:dispatch function variables by
// qualified name ("repro/internal/simd.Axpy") — names, not object
// identity, because each analysis unit type-checks its own object for
// an imported package's variable.
type dispatchTable map[string]bool

func varKey(v *types.Var) string {
	if v.Pkg() == nil {
		return v.Name()
	}
	return v.Pkg().Path() + "." + v.Name()
}

// litRoot is a function literal assigned to a dispatch variable: a
// hot-path entry with a body but no FuncDecl (the init-time bind
// shims wrapping the assembly kernels).
type litRoot struct {
	lit  *ast.FuncLit
	pkg  *Package
	root string
}

// Run implements Analyzer: collect every declared function and every
// //repro:dispatch variable, seed a worklist with the //repro:hotpath
// roots plus everything assigned to a dispatch variable, and walk the
// static call graph breadth-first, checking each reached body once.
func (a HotpathAlloc) Run(prog *Program) []Diagnostic {
	// The function registry is the call graph's: one map of every
	// declared body, shared with the concurrency analyzers. Bodyless
	// FuncDecls (assembly stubs) are absent — nothing to check and
	// calls to them are legal.
	reg := prog.CallGraph().funcs
	dispatch := collectDispatchVars(prog)

	type item struct{ key, root string }
	var work []item
	for key, fn := range reg {
		if hasVerb(fn.decl.Doc, "hotpath") {
			work = append(work, item{key, fn.pkg.Types.Name() + "." + fn.decl.Name.Name})
		}
	}
	// Everything assigned to a dispatch variable is reachable through
	// it from every dispatch call site, so it joins the walk as a root.
	funcs, lits := collectDispatchAssignments(prog, dispatch)
	for _, key := range funcs {
		work = append(work, item{key, "dispatch " + key})
	}
	sort.Slice(work, func(i, j int) bool {
		if work[i].key != work[j].key {
			return work[i].key < work[j].key
		}
		return work[i].root < work[j].root
	})

	var diags []Diagnostic
	seen := make(map[string]bool)
	enqueue := func(keys []string, root string) {
		for _, key := range keys {
			if !seen[key] {
				work = append(work, item{key, root})
			}
		}
	}
	for _, lr := range lits {
		ds, callees := a.checkBody(prog, lr.lit.Body, lr.pkg, dispatch, lr.root)
		diags = append(diags, ds...)
		enqueue(callees, lr.root)
	}
	for len(work) > 0 {
		it := work[0]
		work = work[1:]
		if seen[it.key] {
			continue
		}
		seen[it.key] = true
		fn := reg[it.key]
		if fn == nil {
			continue
		}
		if funcIgnores(fn.decl.Doc, a.Name()) {
			continue // audited: no diagnostics, no propagation
		}
		ds, callees := a.checkBody(prog, fn.decl.Body, fn.pkg, dispatch, it.root)
		diags = append(diags, ds...)
		enqueue(callees, it.root)
	}
	return diags
}

// collectDispatchVars finds every package-level variable whose doc
// comment (on the spec or its enclosing var block) carries
// //repro:dispatch.
func collectDispatchVars(prog *Program) dispatchTable {
	dispatch := make(dispatchTable)
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok || !(hasVerb(vs.Doc, "dispatch") || hasVerb(gd.Doc, "dispatch")) {
						continue
					}
					for _, name := range vs.Names {
						if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
							dispatch[varKey(v)] = true
						}
					}
				}
			}
		}
	}
	return dispatch
}

// collectDispatchAssignments finds every module function and function
// literal assigned to a dispatch variable — in the declaration
// initializer or any assignment statement (the init-time binds and
// test path-forcing helpers).
func collectDispatchAssignments(prog *Program, dispatch dispatchTable) ([]string, []litRoot) {
	var funcs []string
	var lits []litRoot
	record := func(pkg *Package, v *types.Var, rhs ast.Expr) {
		key := varKey(v)
		if !dispatch[key] {
			return
		}
		switch rhs := ast.Unparen(rhs).(type) {
		case *ast.FuncLit:
			lits = append(lits, litRoot{lit: rhs, pkg: pkg, root: "dispatch " + key})
		default:
			if obj, ok := exprObject(rhs, pkg.Info).(*types.Func); ok && moduleFunc(prog, obj) {
				funcs = append(funcs, obj.FullName())
			}
		}
	}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ValueSpec:
					for i, name := range n.Names {
						if i >= len(n.Values) {
							break
						}
						if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
							record(pkg, v, n.Values[i])
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						if i >= len(n.Rhs) {
							break
						}
						if v, ok := exprObject(lhs, pkg.Info).(*types.Var); ok {
							record(pkg, v, n.Rhs[i])
						}
					}
				}
				return true
			})
		}
	}
	sort.Strings(funcs)
	sort.Slice(lits, func(i, j int) bool { return lits[i].lit.Pos() < lits[j].lit.Pos() })
	return funcs, lits
}

// exprObject resolves an identifier or selector expression to its
// object, or nil.
func exprObject(e ast.Expr, info *types.Info) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	}
	return nil
}

// moduleFunc reports whether a function belongs to the analyzed
// module.
func moduleFunc(prog *Program, obj *types.Func) bool {
	pkg := obj.Pkg()
	if pkg == nil {
		return false
	}
	return pkg.Path() == prog.ModulePath || strings.HasPrefix(pkg.Path(), prog.ModulePath+"/")
}

// checkBody walks one hot function (or bind-shim literal) body,
// returning its diagnostics and the qualified names of module
// functions it calls.
func (a HotpathAlloc) checkBody(prog *Program, body *ast.BlockStmt, pkg *Package, dispatch dispatchTable, root string) ([]Diagnostic, []string) {
	var diags []Diagnostic
	var callees []string
	info := pkg.Info
	exemptRanges := append(panicArgRanges(body, info), coldErrRanges(body, info)...)
	inPanic := func(n ast.Node) bool {
		for _, r := range exemptRanges {
			if r.pos <= n.Pos() && n.End() <= r.end {
				return true
			}
		}
		return false
	}
	report := func(n ast.Node, format string, args ...any) {
		pos := prog.Fset.Position(n.Pos())
		msg := fmt.Sprintf(format, args...)
		diags = append(diags, Diagnostic{
			Pos:      pos,
			Analyzer: a.Name(),
			Message:  fmt.Sprintf("%s on hot path (via //repro:hotpath %s)", msg, root),
		})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			obj := calleeObject(n, info)
			switch obj := obj.(type) {
			case *types.Var:
				// A call through a function variable. Package-level
				// variables must be declared dispatch points (their
				// assignees joined the walk as roots); local function
				// values are not followed, per the package policy.
				if _, isFunc := obj.Type().Underlying().(*types.Signature); !isFunc {
					break
				}
				if obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
					break
				}
				if !dispatch[varKey(obj)] && !inPanic(n) {
					report(n, "call through package-level function variable %s (not //repro:dispatch)", obj.Name())
				}
			case *types.Builtin:
				if inPanic(n) {
					break
				}
				switch obj.Name() {
				case "make":
					report(n, "make allocates")
				case "new":
					report(n, "new allocates")
				case "append":
					report(n, "append may grow and allocate")
				}
			case *types.Func:
				pkg := obj.Pkg()
				if pkg == nil {
					break
				}
				if pkg.Path() == "fmt" && fmtAllocFuncs[obj.Name()] {
					if !inPanic(n) {
						report(n, "fmt.%s formats and allocates", obj.Name())
					}
					break
				}
				if pkg.Path() == prog.ModulePath || strings.HasPrefix(pkg.Path(), prog.ModulePath+"/") {
					// A //repro:ignore on the call line audits the edge.
					if !prog.Directives.Ignored(prog.Fset.Position(n.Pos()), a.Name()) {
						callees = append(callees, obj.FullName())
					}
				}
			}
		case *ast.FuncLit:
			if inPanic(n) {
				break
			}
			if caps := capturedVars(n, info, pkg.Types.Scope()); len(caps) > 0 {
				report(n, "closure captures %s by reference (may heap-allocate)", strings.Join(caps, ", "))
			}
		case *ast.CompositeLit:
			if inPanic(n) {
				break
			}
			switch info.Types[n].Type.Underlying().(type) {
			case *types.Slice:
				report(n, "slice literal allocates")
			case *types.Map:
				report(n, "map literal allocates")
			}
		case *ast.UnaryExpr:
			if n.Op != token.AND || inPanic(n) {
				break
			}
			if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				report(n, "&composite literal escapes to the heap")
			}
		}
		return true
	})
	return diags, callees
}

// calleeObject resolves the object a call's Fun refers to, or nil for
// dynamic calls (function values, interface methods) and conversions.
// A method of an instantiated generic type resolves to its generic
// declaration, the object the call graph is keyed by.
func calleeObject(call *ast.CallExpr, info *types.Info) types.Object {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return obj
}

type posRange struct{ pos, end token.Pos }

// panicArgRanges collects the source ranges of panic(...) arguments;
// allocation there is the failure path, which the zero-alloc contract
// does not cover.
func panicArgRanges(body *ast.BlockStmt, info *types.Info) []posRange {
	var ranges []posRange
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if b, ok := calleeObject(call, info).(*types.Builtin); ok && b.Name() == "panic" {
			for _, arg := range call.Args {
				ranges = append(ranges, posRange{arg.Pos(), arg.End()})
			}
		}
		return true
	})
	return ranges
}

// coldErrRanges collects the body ranges of `if err != nil` (and
// `err == nil` else-arms') error blocks: code reachable only once an
// error has already occurred is off the steady-state hot path, so
// allocating the error report there — and whatever cleanup helpers it
// calls — is not a contract violation.
func coldErrRanges(body *ast.BlockStmt, info *types.Info) []posRange {
	var ranges []posRange
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		eq, isErrCond := errNilCond(ifs.Cond, info)
		if !isErrCond {
			return true
		}
		if !eq {
			// if err != nil { cold }
			ranges = append(ranges, posRange{ifs.Body.Pos(), ifs.Body.End()})
		} else if ifs.Else != nil {
			// if err == nil { hot } else { cold }
			ranges = append(ranges, posRange{ifs.Else.Pos(), ifs.Else.End()})
		}
		return true
	})
	return ranges
}

// errNilCond matches `x == nil` / `x != nil` where x has type error;
// eq reports which comparison it is.
func errNilCond(cond ast.Expr, info *types.Info) (eq, ok bool) {
	bin, isBin := ast.Unparen(cond).(*ast.BinaryExpr)
	if !isBin || (bin.Op != token.EQL && bin.Op != token.NEQ) {
		return false, false
	}
	x, y := bin.X, bin.Y
	if isNilExpr(x, info) {
		x, y = y, x
	}
	if !isNilExpr(y, info) {
		return false, false
	}
	tv, found := info.Types[x]
	if !found || !isErrorType(tv.Type) {
		return false, false
	}
	return bin.Op == token.EQL, true
}

func isNilExpr(e ast.Expr, info *types.Info) bool {
	tv, ok := info.Types[ast.Unparen(e)]
	return ok && tv.IsNil()
}

// capturedVars lists (in source order) the local variables a function
// literal references but does not declare — closure captures, which
// are by reference in Go. Package-level variables and struct fields
// are not captures.
func capturedVars(lit *ast.FuncLit, info *types.Info, pkgScope *types.Scope) []string {
	seen := make(map[*types.Var]bool)
	var caps []*types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if v.Parent() == nil || v.Parent() == pkgScope || v.Parent().Parent() == types.Universe {
			return true // package-level or universe
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			seen[v] = true
			caps = append(caps, v)
		}
		return true
	})
	sort.Slice(caps, func(i, j int) bool { return caps[i].Pos() < caps[j].Pos() })
	names := make([]string, len(caps))
	for i, v := range caps {
		names[i] = v.Name()
	}
	return names
}
