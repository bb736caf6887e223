// Package analysis is the repo-specific static-analysis suite behind
// cmd/repolint. It loads and type-checks every package of the module
// with nothing but the standard library (go/parser + go/types; stdlib
// imports are type-checked from source) and runs analyzers that
// enforce the engine invariants the compiler cannot see:
//
//	hotpath-alloc       //repro:hotpath functions and their static
//	                    callees within the module stay allocation-free
//	determinism         engine packages stay run-to-run and
//	                    worker-count reproducible
//	float-eq            no raw float ==/!= outside sanctioned
//	                    //repro:bitwise sites
//	errcheck-lite       no silently discarded error returns
//	goroutine-leak      every go statement reaches a join, or is an
//	                    audited //repro:worker-pool / daemon
//	waitgroup-misuse    Add before spawn and Wait, no WaitGroup copies
//	channel-discipline  sends have receivers, one close, owner closes
//	lock-order          global mutex acquisition order is acyclic and
//	                    every Lock is matched by an Unlock
//	workspace-aliasing  pooled workspace slices never outlive the pool
//	                    (not stored, returned, or captured unjoined)
//
// The concurrency analyzers share an SSA-lite dataflow layer (ssa.go,
// callgraph.go, escape.go): flow-insensitive def-use chains over
// go/types, a module-internal static call graph, and a conservative
// escape lattice. Diagnostics carry file:line:col positions relative
// to the module root and can be suppressed per line or per function
// with //repro:ignore (see directives.go for the full vocabulary).
package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Pos      token.Position // Filename relative to the load root
	Analyzer string
	Message  string
}

// String formats a diagnostic the way the driver prints it:
// file:line:col: [analyzer] message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one invariant checker run over the whole program.
type Analyzer interface {
	Name() string
	Run(prog *Program) []Diagnostic
}

// Config tunes the suite. The zero value is not useful; start from
// DefaultConfig.
type Config struct {
	// EnginePackages are the final import-path elements of the
	// packages the determinism analyzer covers.
	EnginePackages []string
	// ErrorAllowlist are qualified-name prefixes of callees whose
	// discarded error returns are tolerated (best-effort writers).
	ErrorAllowlist []string
}

// DefaultConfig returns the configuration repolint ships with.
func DefaultConfig() Config {
	return Config{
		EnginePackages: []string{"fanout", "kernel", "dimtree", "seq", "par", "cpals", "sparse", "plan", "flight", "ttm", "tucker"},
		ErrorAllowlist: []string{
			"fmt.Print",
			"fmt.Fprint",
			"(*bytes.Buffer).",
			"(*strings.Builder).",
		},
	}
}

// DefaultAnalyzers returns the full suite in reporting order.
func DefaultAnalyzers(cfg Config) []Analyzer {
	return []Analyzer{
		HotpathAlloc{},
		Determinism{EnginePackages: cfg.EnginePackages},
		FloatEq{TestScope: cfg.EnginePackages},
		ErrcheckLite{Allowlist: cfg.ErrorAllowlist},
		GoroutineLeak{},
		WaitGroupMisuse{},
		ChannelDiscipline{},
		LockOrder{},
		WorkspaceAliasing{EnginePackages: cfg.EnginePackages},
	}
}

// RunSuite runs every analyzer, drops diagnostics suppressed by
// //repro:ignore directives, and returns the rest sorted by position.
func RunSuite(prog *Program, analyzers []Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, a := range analyzers {
		for _, d := range a.Run(prog) {
			if prog.Directives.Ignored(d.Pos, d.Analyzer) {
				continue
			}
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out
}
