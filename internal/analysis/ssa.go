package analysis

// ssa.go is the per-function half of the SSA-lite dataflow layer: a
// flow-insensitive def-use index over go/types objects. It does not
// build real SSA form — there is no dominance, no phi placement — but
// it answers the two questions the concurrency analyzers ask of a
// function body:
//
//  1. which expressions were ever assigned to this variable
//     (defUse.sources: value provenance, e.g. "this file handle came
//     from os.Open"), and
//  2. which program object does this l-value expression ultimately
//     name (baseObj: `ws.bufs[c][lo:hi]` -> the field `bufs`).
//
// Objects are unified across analysis units by declaration position
// (objKey): the loader type-checks every unit against one shared
// FileSet, so the *types.Var a base package's import graph creates for
// a field or parameter carries the same token.Pos as the one the
// defining unit creates, even though the objects differ. That single
// invariant is what lets the interprocedural passes (callgraph.go)
// match a channel sent to a callee against the callee's parameter
// without a whole-program SSA builder.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// objKey is the cross-unit identity of a types.Object: its declaration
// position in the shared FileSet. token.NoPos (objects without source,
// e.g. universe members) never matches anything.
func objKey(obj types.Object) token.Pos {
	if obj == nil {
		return token.NoPos
	}
	return obj.Pos()
}

// baseObj resolves the object an l-value or channel expression
// ultimately names, peeling index, slice, star, parens and &:
// `ws.bufs[c][lo:hi]` yields the field `bufs`, `(*p).ch` the field
// `ch`, a bare identifier its variable. Calls, literals and receive
// expressions have no stable base and yield nil.
func baseObj(e ast.Expr, info *types.Info) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		case *ast.SelectorExpr:
			return info.Uses[x.Sel]
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		default:
			return nil
		}
	}
}

// isNamedType reports whether t (after pointer indirection) is the
// named type pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// isMethodOn reports whether obj is the named method on (a pointer to)
// the named type: isMethodOn(o, "sync", "WaitGroup", "Wait").
func isMethodOn(obj types.Object, pkgPath, typeName, method string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Name() != method {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isNamedType(sig.Recv().Type(), pkgPath, typeName)
}

// defUse is the flow-insensitive def-use index of one function body:
// for each local object, every expression assigned to it anywhere in
// the function. Parameters and receivers are registered with no
// defining expression — their provenance is the caller's.
type defUse struct {
	info *types.Info
	defs map[types.Object][]ast.Expr
	prm  map[types.Object]bool // parameters and receivers
}

// buildDefUse indexes fd's body (which must be non-nil).
func buildDefUse(fd *ast.FuncDecl, info *types.Info) *defUse {
	du := &defUse{
		info: info,
		defs: make(map[types.Object][]ast.Expr),
		prm:  make(map[types.Object]bool),
	}
	addParams := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := info.Defs[name]; obj != nil {
					du.prm[obj] = true
				}
			}
		}
	}
	addParams(fd.Recv)
	addParams(fd.Type.Params)
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			return
		}
		du.defs[obj] = append(du.defs[obj], rhs)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					record(n.Lhs[i], n.Rhs[i])
				}
			} else if len(n.Rhs) == 1 {
				// Multi-value: every LHS is defined by the one call.
				for i := range n.Lhs {
					record(n.Lhs[i], n.Rhs[0])
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i < len(n.Values) {
					record(name, n.Values[i])
				} else if len(n.Values) == 1 {
					record(name, n.Values[0])
				}
			}
		case *ast.RangeStmt:
			// A range-derived value's provenance is the ranged operand
			// (approximate, but exactly what channel aliasing needs:
			// `for _, ch := range n.chans[r]` makes ch an alias of the
			// chans field).
			if n.Value != nil {
				record(n.Value, n.X)
			}
			if n.Key != nil && n.Value == nil {
				// range over a channel binds the element to Key.
				if _, ok := du.info.Types[n.X].Type.Underlying().(*types.Chan); ok {
					record(n.Key, n.X)
				}
			}
		}
		return true
	})
	return du
}

// sources flattens an expression to its value sources, chasing local
// variables through every definition recorded for them (bounded,
// cycle-safe). A parameter, an unindexed object, or a non-identifier
// expression is its own source. Slice and index operations are peeled:
// the source of `f[i]` includes the sources of `f`.
func (du *defUse) sources(e ast.Expr) []ast.Expr {
	var out []ast.Expr
	seen := make(map[types.Object]bool)
	var walk func(ast.Expr, int)
	walk = func(e ast.Expr, depth int) {
		if e == nil || depth > 8 {
			return
		}
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := du.info.Uses[x]
			if obj == nil {
				obj = du.info.Defs[x]
			}
			if obj == nil || seen[obj] {
				return
			}
			seen[obj] = true
			defs := du.defs[obj]
			if len(defs) == 0 {
				out = append(out, x) // parameter or untracked: terminal
				return
			}
			for _, d := range defs {
				walk(d, depth+1)
			}
		case *ast.IndexExpr:
			walk(x.X, depth+1)
		case *ast.SliceExpr:
			walk(x.X, depth+1)
		case *ast.StarExpr:
			walk(x.X, depth+1)
		default:
			out = append(out, e)
		}
	}
	walk(e, 0)
	return out
}

// calleePath returns the package path and name of a call's static
// callee ("os", "Open"), or ok=false for dynamic calls and methods.
func calleePath(call *ast.CallExpr, info *types.Info) (pkgPath, name string, ok bool) {
	fn, _ := calleeObject(call, info).(*types.Func)
	if fn == nil || fn.Pkg() == nil {
		return "", "", false
	}
	if sig, _ := fn.Type().(*types.Signature); sig != nil && sig.Recv() != nil {
		return "", "", false
	}
	return fn.Pkg().Path(), fn.Name(), true
}
