package analysis

// callgraph.go is the interprocedural half of the SSA-lite layer: a
// static, module-internal call graph over every declared function,
// with the same breadth-first reachability machinery the hotpath-alloc
// walk pioneered. Nodes are qualified names (types.Func.FullName), so
// an edge from a call site in one analysis unit resolves to the callee
// declared in another unit even though their *types.Func objects
// differ — FullName, like objKey, is stable across units.
//
// The graph is deliberately first-order: calls through interfaces and
// local function values are not edges (the hot-path policy is "keep it
// direct", and the concurrency analyzers treat an unresolvable call as
// an analysis horizon, not an error). Calls through //repro:dispatch
// variables are covered by treating every dispatch assignee as a root
// where reachability from hot paths matters.

import (
	"go/ast"
	"go/types"
	"sort"
)

// funcInfo is one declared function: its syntax, the analysis unit it
// was type-checked in, and its object.
type funcInfo struct {
	decl *ast.FuncDecl
	pkg  *Package
	obj  *types.Func
}

// callGraph is the module-internal static call graph.
type callGraph struct {
	prog    *Program
	funcs   map[string]*funcInfo // FullName -> declaration
	callees map[string][]string  // FullName -> sorted unique callee FullNames
}

// CallGraph returns the program's call graph, built on first use and
// shared by every analyzer.
func (p *Program) CallGraph() *callGraph {
	if p.graph == nil {
		p.graph = buildCallGraph(p)
	}
	return p.graph
}

func buildCallGraph(prog *Program) *callGraph {
	g := &callGraph{
		prog:    prog,
		funcs:   make(map[string]*funcInfo),
		callees: make(map[string][]string),
	}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue // assembly stubs have no body and no outgoing edges
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.funcs[obj.FullName()] = &funcInfo{decl: fd, pkg: pkg, obj: obj}
			}
		}
	}
	for name, fi := range g.funcs {
		g.callees[name] = moduleCallees(prog, fi.decl.Body, fi.pkg.Info)
	}
	return g
}

// moduleCallees lists the qualified names of module functions a body
// statically calls (including inside nested function literals), sorted
// and deduplicated.
func moduleCallees(prog *Program, body *ast.BlockStmt, info *types.Info) []string {
	set := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if obj, ok := calleeObject(call, info).(*types.Func); ok && moduleFunc(prog, obj) {
			set[obj.FullName()] = true
		}
		return true
	})
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// reachable runs the BFS: every function reachable from the roots over
// static call edges, roots included.
func (g *callGraph) reachable(roots []string) map[string]bool {
	seen := make(map[string]bool)
	queue := append([]string(nil), roots...)
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		if seen[name] {
			continue
		}
		seen[name] = true
		queue = append(queue, g.callees[name]...)
	}
	return seen
}

// hotReachable returns every function reachable from a //repro:hotpath
// root or a //repro:dispatch assignee — the zero-alloc contract's
// blast radius, which is also the scope of the workspace-aliasing
// analyzer.
func (g *callGraph) hotReachable() map[string]bool {
	var roots []string
	for name, fi := range g.funcs {
		if hasVerb(fi.decl.Doc, "hotpath") {
			roots = append(roots, name)
		}
	}
	dispatch := collectDispatchVars(g.prog)
	funcs, lits := collectDispatchAssignments(g.prog, dispatch)
	roots = append(roots, funcs...)
	sort.Strings(roots)
	seen := g.reachable(roots)
	// Dispatch-bound function literals have no FullName; fold their
	// static callees in directly.
	for _, lr := range lits {
		for _, callee := range moduleCallees(g.prog, lr.lit.Body, lr.pkg.Info) {
			if !seen[callee] {
				for k, v := range g.reachable([]string{callee}) {
					if v {
						seen[k] = true
					}
				}
			}
		}
	}
	return seen
}

// calleeName returns the qualified name of a call's static module
// callee, or "" when the callee is dynamic or external.
func calleeName(prog *Program, call *ast.CallExpr, info *types.Info) string {
	if obj, ok := calleeObject(call, info).(*types.Func); ok && moduleFunc(prog, obj) {
		return obj.FullName()
	}
	return ""
}

// paramObjs returns the declared parameter objects of a function in
// positional order (receiver excluded), resolved in the unit that
// declared it.
func paramObjs(fi *funcInfo) []types.Object {
	var out []types.Object
	if fi.decl.Type.Params == nil {
		return out
	}
	for _, f := range fi.decl.Type.Params.List {
		for _, name := range f.Names {
			out = append(out, fi.pkg.Info.Defs[name])
		}
	}
	return out
}
