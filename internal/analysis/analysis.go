// Package analysis is a self-contained, stdlib-only static-analysis
// framework for this repository, in the spirit of go/analysis but without
// the x/tools dependency. It loads and type-checks every package of the
// module (see Load), runs a suite of repo-specific analyzers over the
// syntax and type information, and reports diagnostics with positions.
//
// The analyzers enforce the invariants GraphNER's reproducibility rests
// on — bit-deterministic output and pool-safe, NaN-free hot paths:
//
//   - poolescape: values obtained from a sync.Pool must not be used,
//     returned, stored, or captured after the corresponding Put;
//   - maporder: iteration over a map must not feed ordered output
//     (slice appends, indexed writes, encoders) without a sort;
//   - floatcmp: ==/!= on computed floats must go through floats.EpsEq;
//   - naninf: divisions and math.Log/math.Exp in the propagation and CRF
//     hot paths need a guard or an explicit annotation;
//   - ctxloop: goroutine-spawning loops must carry a join/cancel handle
//     (sync.WaitGroup, channel, or context.Context).
//
// On top of the syntactic suite, four flow-sensitive analyzers run over
// per-function control-flow graphs (internal/analysis/cfg) solved with
// the generic worklist engine (internal/analysis/dataflow) — the
// correctness gate for the parallel propagation and serving work:
//
//   - lockbalance: every Lock reaches an Unlock on all CFG paths
//     (defer-aware), no double-Lock on a path, no deferred Unlock in a
//     loop;
//   - sharedwrite: goroutine writes to captured variables, fields, and
//     maps need a held mutex, the module-wide guard discipline, or a
//     spawn/Wait hand-off;
//   - atomicmix: an address handed to sync/atomic anywhere must never be
//     accessed non-atomically;
//   - waitgroupbalance: wg.Add on the spawning side only, wg.Done
//     reached on every goroutine exit path.
//
// A finding that is deliberate is silenced by annotating the offending
// line (or the line above it) with a "// lint:checked <reason>" comment;
// the reason is required reading for the next maintainer, not the tool.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"

	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/summary"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string
	// Doc is a one-line description shown by the driver.
	Doc string
	// Run inspects the package in pass and reports findings via
	// pass.Report. It returns an error only for internal failures, not
	// for findings.
	Run func(pass *Pass) error
	// AppliesTo, when non-nil, restricts the analyzer to packages whose
	// import path it accepts. The test harness bypasses it; the driver
	// honours it.
	AppliesTo func(pkgPath string) bool
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Facts carries cross-package knowledge accumulated in dependency
	// order (pool sources and releasers).
	Facts *Facts
	// CallGraph is the module-wide call graph and Summaries the
	// interprocedural effect summaries over it. Both are read-only and
	// shared by every pass; nil only in reduced test harnesses.
	CallGraph *callgraph.Graph
	Summaries *summary.Set

	suppress map[string]map[int]bool // filename -> suppressed lines
	report   func(Diagnostic)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Symbol names the top-level declaration enclosing the finding
	// (Type.Method for methods), or "" outside any declaration. The
	// driver's baseline keys on {analyzer, package, symbol} — no line
	// numbers — so recorded findings survive unrelated edits.
	Symbol string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Report records a finding at pos unless the source line (or the line
// above it) carries a "// lint:checked" annotation.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if lines, ok := p.suppress[position.Filename]; ok {
		if lines[position.Line] || lines[position.Line-1] {
			return
		}
	}
	p.report(Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		Symbol:   symbolAt(p.Files, pos),
	})
}

// symbolAt names the top-level declaration enclosing pos (doc comments
// included), or "" when pos lies between declarations.
func symbolAt(files []*ast.File, pos token.Pos) string {
	for _, f := range files {
		if pos < f.FileStart || pos >= f.FileEnd {
			continue
		}
		for _, d := range f.Decls {
			start := d.Pos()
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Doc != nil {
					start = d.Doc.Pos()
				}
				if pos < start || pos >= d.End() {
					continue
				}
				name := d.Name.Name
				if d.Recv != nil && len(d.Recv.List) > 0 {
					if t := recvTypeName(d.Recv.List[0].Type); t != "" {
						name = t + "." + name
					}
				}
				return name
			case *ast.GenDecl:
				if d.Doc != nil {
					start = d.Doc.Pos()
				}
				if pos < start || pos >= d.End() {
					continue
				}
				for _, sp := range d.Specs {
					if pos < sp.Pos() || pos >= sp.End() {
						continue
					}
					switch sp := sp.(type) {
					case *ast.ValueSpec:
						if len(sp.Names) > 0 {
							return sp.Names[0].Name
						}
					case *ast.TypeSpec:
						return sp.Name.Name
					}
				}
				return ""
			}
		}
		return ""
	}
	return ""
}

// buildSuppressions scans the comments of every file for lint:checked
// annotations and records the lines they cover.
func buildSuppressions(fset *token.FileSet, files []*ast.File) map[string]map[int]bool {
	out := make(map[string]map[int]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.Contains(c.Text, "lint:checked") {
					continue
				}
				pos := fset.Position(c.Pos())
				m := out[pos.Filename]
				if m == nil {
					m = make(map[int]bool)
					out[pos.Filename] = m
				}
				m[pos.Line] = true
			}
		}
	}
	return out
}

// Run executes the analyzers over the loaded packages in order, honouring
// AppliesTo, and returns all diagnostics sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return RunN(pkgs, analyzers, 1)
}

// BuildInterprocedural constructs the module-wide call graph and effect
// summaries over the loaded packages, shared read-only by every pass.
func BuildInterprocedural(pkgs []*Package) (*callgraph.Graph, *summary.Set) {
	units := make([]*callgraph.Unit, len(pkgs))
	for i, p := range pkgs {
		units[i] = &callgraph.Unit{Path: p.Path, Fset: p.Fset, Files: p.Files, Info: p.Info}
	}
	g := callgraph.Build(units)
	return g, summary.Compute(g)
}

// RunN is Run with a package-level worker pool. Facts are computed for
// every package first (in load order, which Load guarantees is
// dependency order), then the call graph and summaries over all
// packages; the per-package analyzer loops — the bulk of the wall clock
// — then run on up to workers goroutines. Output is independent of
// worker count: diagnostics are collected per package and merged in
// load order before the final position sort.
func RunN(pkgs []*Package, analyzers []*Analyzer, workers int) ([]Diagnostic, error) {
	facts := NewFacts()
	for _, pkg := range pkgs {
		facts.AddPackage(pkg)
	}
	graph, sums := BuildInterprocedural(pkgs)

	if workers < 1 {
		workers = 1
	}
	perPkg := make([][]Diagnostic, len(pkgs))
	errs := make([]error, len(pkgs))
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				perPkg[i], errs[i] = runPackage(pkgs[i], analyzers, facts, graph, sums)
			}
		}()
	}
	for i := range pkgs {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	var diags []Diagnostic
	for _, d := range perPkg {
		diags = append(diags, d...)
	}
	sortDiagnostics(diags)
	return diags, nil
}

// runPackage runs every applicable analyzer over one package.
func runPackage(pkg *Package, analyzers []*Analyzer, facts *Facts, graph *callgraph.Graph, sums *summary.Set) ([]Diagnostic, error) {
	supp := buildSuppressions(pkg.Fset, pkg.Files)
	var diags []Diagnostic
	for _, a := range analyzers {
		if a.AppliesTo != nil && !a.AppliesTo(pkg.Path) {
			continue
		}
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			Info:      pkg.Info,
			Facts:     facts,
			CallGraph: graph,
			Summaries: sums,
			suppress:  supp,
			report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	return diags, nil
}

// sortDiagnostics orders findings by position then analyzer name.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// All returns the full analyzer suite in stable order: the syntactic
// checks first, then the flow-sensitive concurrency suite, the
// interprocedural checks, and the performance-contract checkers.
func All() []*Analyzer {
	return []*Analyzer{
		PoolEscape, MapOrder, FloatCmp, NanInf, CtxLoop,
		LockBalance, SharedWrite, AtomicMix, WaitGroupBalance,
		PoolLife, LockAtCall, Determinism, ErrDrop,
		NoAlloc, NonBlocking, BadDirective,
	}
}

// isTestFile reports whether pos lies in a *_test.go file.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// walkFuncs visits every function body of the files: named declarations
// get their *ast.FuncDecl; function literals are visited as part of the
// enclosing body walk by the analyzers themselves.
func walkFuncs(files []*ast.File, fn func(decl *ast.FuncDecl)) {
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}

// exprIdents collects the variable objects referenced by e.
func exprIdents(info *types.Info, e ast.Expr) []*types.Var {
	var out []*types.Var
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok {
				out = append(out, v)
			}
		}
		return true
	})
	return out
}

// isFloat reports whether t's underlying type is a floating-point basic
// type (or an untyped float constant type).
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
