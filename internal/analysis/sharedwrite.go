package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SharedWrite flags writes from inside a `go` closure to memory also
// visible outside the goroutine, when no synchronization covers the
// write. It is the gate in front of the sharding/serving work: every
// ROADMAP item turns the single-threaded propagation and CRF loops into
// workers over shared state, and this is the mutation pattern the
// AST-level lints cannot see.
//
// For every goroutine spawned as `go func(){...}()` the analyzer
// collects writes to captured variables, captured struct fields, and
// captured maps (assignments, ++/--, and `x = append(x, ...)`). A write
// is reported unless one of:
//
//   - a mutex is held at the write, flow-sensitively: the lock dataflow
//     over the closure's CFG proves some Lock covers the write on every
//     path reaching it (a Lock on one branch only does not);
//   - the written field is mutex-guarded per the cross-package facts
//     (written under a lock elsewhere in the module) — then the report
//     says the lock discipline is violated here, a stronger message;
//   - the goroutine is spawned once (not in a loop) and every outside
//     access after the spawn is separated from it by a synchronization
//     barrier (a WaitGroup.Wait call or a channel receive).
//
// Writes to slice *elements* are deliberately exempt: the repository's
// worker idiom shards rows of a shared slice disjointly (propagation
// beliefs, per-worker delta slots), which is safe and pervasive.
// Goroutines spawned in a loop get no barrier exemption — two workers
// writing the same captured variable race each other regardless of any
// Wait downstream.
var SharedWrite = &Analyzer{
	Name: "sharedwrite",
	Doc:  "goroutine writes to shared variables/fields/maps need a mutex or hand-off",
	Run:  runSharedWrite,
}

func runSharedWrite(pass *Pass) error {
	walkFuncs(pass.Files, func(fd *ast.FuncDecl) {
		checkSharedWrite(pass, fd.Body)
	})
	return nil
}

// sharedWrite is one write to a captured location inside a go closure.
type sharedWrite struct {
	pos   token.Pos
	v     *types.Var // the variable or field object written
	key   string     // rendered expression for the message
	field bool
}

func checkSharedWrite(pass *Pass, body *ast.BlockStmt) {
	info := pass.Info
	var goStmts []*ast.GoStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			goStmts = append(goStmts, g)
		}
		return true
	})
	if len(goStmts) == 0 {
		return
	}
	loops := loopRanges(body)
	barriers := barrierPositions(info, body, goStmts)

	for _, g := range goStmts {
		lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
		if !ok {
			continue // go f(args): arguments are evaluated at spawn time
		}
		writes := capturedWrites(info, lit)
		if len(writes) == 0 {
			continue
		}
		held := heldLocksAt(info, lit.Body, pass.lockResolver(lit.Body))
		inLoop := false
		for _, lr := range loops {
			if lr[0] <= g.Pos() && g.End() <= lr[1] {
				inLoop = true
				break
			}
		}
		for _, w := range writes {
			if held(w.pos) {
				continue
			}
			if w.field && pass.Facts.IsGuardedField(w.v) {
				pass.Report(w.pos, "field %s is mutex-guarded elsewhere but written in a goroutine without holding a lock", w.key)
				continue
			}
			if inLoop {
				pass.Report(w.pos, "%s is written by a goroutine spawned in a loop; concurrent workers race on it without a mutex", w.key)
				continue
			}
			if use := unsyncedOutsideUse(info, body, g, w.v, barriers); use != token.NoPos {
				pass.Report(w.pos, "%s is written by this goroutine and accessed outside it without synchronization (mutex, channel, or Wait)", w.key)
			}
		}
	}
}

// capturedWrites collects writes inside lit to locations declared outside
// it: plain variables, struct fields through a captured base, and map
// entries. Nested go statements are skipped (they are their own spawn
// sites); other nested literals run on this goroutine and are included.
func capturedWrites(info *types.Info, lit *ast.FuncLit) []sharedWrite {
	var out []sharedWrite
	var record func(e ast.Expr)
	record = func(e ast.Expr) {
		e = ast.Unparen(e)
		switch e := e.(type) {
		case *ast.Ident:
			if v, ok := info.Uses[e].(*types.Var); ok && capturedVar(v, lit) {
				out = append(out, sharedWrite{pos: e.Pos(), v: v, key: e.Name})
			}
		case *ast.SelectorExpr:
			fv, ok := fieldVar(info, e)
			if !ok {
				return
			}
			if shardIndexedBase(info, e.X, lit) {
				// The disjoint-shard idiom extended to struct fields:
				// states[s].delta = ... where s is the worker's own shard
				// number. Workers index disjoint elements, so the field
				// slots are disjoint too — the per-worker state-slot
				// write pattern.
				return
			}
			if base := rootIdent(e.X); base != nil {
				if bv, ok := info.Uses[base].(*types.Var); ok && capturedVar(bv, lit) {
					out = append(out, sharedWrite{pos: e.Pos(), v: fv, key: writeKey(e), field: true})
				}
			}
		case *ast.IndexExpr:
			if _, ok := info.TypeOf(e.X).Underlying().(*types.Map); !ok {
				return // slice/array element writes: the disjoint-shard idiom
			}
			record(e.X) // a map write is a write to the map itself
		case *ast.StarExpr:
			record(e.X) // *p = v through a captured pointer
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				record(lhs)
			}
		case *ast.IncDecStmt:
			record(n.X)
		}
		return true
	})
	return out
}

// capturedVar reports whether v is declared outside lit (an enclosing
// function's local or a package-level variable) — i.e. shared between
// the goroutine and its spawner.
func capturedVar(v *types.Var, lit *ast.FuncLit) bool {
	return v.Pos() < lit.Pos() || v.Pos() > lit.End()
}

// fieldVar resolves sel to the struct field it selects, if any.
func fieldVar(info *types.Info, sel *ast.SelectorExpr) (*types.Var, bool) {
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok {
			return v, true
		}
		return nil, false
	}
	// Qualified package selectors (pkg.Var) resolve through Uses.
	if v, ok := info.Uses[sel.Sel].(*types.Var); ok && !v.IsField() {
		return v, true
	}
	return nil, false
}

// writeKey renders a written location for diagnostics. Unlike exprKey —
// which deliberately refuses indexed expressions because they make poor
// lock identities — a write target like states[s].delta is best reported
// with its index spelled out.
func writeKey(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if base := writeKey(e.X); base != "" {
			return base + "." + e.Sel.Name
		}
	case *ast.IndexExpr:
		if base := writeKey(e.X); base != "" {
			idx := writeKey(e.Index)
			if idx == "" {
				if bl, ok := ast.Unparen(e.Index).(*ast.BasicLit); ok {
					idx = bl.Value
				}
			}
			return base + "[" + idx + "]"
		}
	case *ast.StarExpr:
		return writeKey(e.X)
	}
	return ""
}

// shardIndexedBase reports whether a selector's base chain passes through
// an index into a slice or array whose index expression is built entirely
// from closure-local variables (and uses at least one). Such a write —
// states[s].field with s a worker-private shard number — lands in a slice
// element the goroutine owns, the struct-field analogue of the exempt
// slice-element shard idiom. An index mentioning any captured variable,
// or none at all (states[0].field), stays conservative: it is not
// provably private to the goroutine.
func shardIndexedBase(info *types.Info, e ast.Expr, lit *ast.FuncLit) bool {
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			if _, isMap := info.TypeOf(t.X).Underlying().(*types.Map); !isMap && closureLocalIndex(info, t.Index, lit) {
				return true
			}
			e = t.X
		case *ast.StarExpr:
			e = t.X
		default:
			return false
		}
	}
}

// closureLocalIndex reports whether idx references at least one variable
// declared inside lit and none declared outside it.
func closureLocalIndex(info *types.Info, idx ast.Expr, lit *ast.FuncLit) bool {
	locals, ok := 0, true
	ast.Inspect(idx, func(n ast.Node) bool {
		id, isIdent := n.(*ast.Ident)
		if !isIdent {
			return true
		}
		v, isVar := info.Uses[id].(*types.Var)
		if !isVar {
			return true
		}
		if capturedVar(v, lit) {
			ok = false
			return false
		}
		locals++
		return true
	})
	return ok && locals > 0
}

// rootIdent returns the identifier at the base of a selector/index/star
// chain, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.Ident:
			return t
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		default:
			return nil
		}
	}
}

// loopRanges collects the position spans of for/range bodies in body.
func loopRanges(body *ast.BlockStmt) [][2]token.Pos {
	var out [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			out = append(out, [2]token.Pos{n.Body.Pos(), n.Body.End()})
		case *ast.RangeStmt:
			out = append(out, [2]token.Pos{n.Body.Pos(), n.Body.End()})
		}
		return true
	})
	return out
}

// barrierPositions collects synchronization points in body that order the
// spawner after its goroutines: WaitGroup.Wait calls and channel
// receives, outside any go statement.
func barrierPositions(info *types.Info, body *ast.BlockStmt, goStmts []*ast.GoStmt) []token.Pos {
	inGo := func(pos token.Pos) bool {
		for _, g := range goStmts {
			if g.Pos() <= pos && pos <= g.End() {
				return true
			}
		}
		return false
	}
	var out []token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if fn := calleeFunc(info, n); fn != nil && fn.FullName() == "(*sync.WaitGroup).Wait" && !inGo(n.Pos()) {
				out = append(out, n.Pos())
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !inGo(n.Pos()) {
				out = append(out, n.Pos())
			}
		case *ast.RangeStmt:
			if _, ok := info.TypeOf(n.X).Underlying().(*types.Chan); ok && !inGo(n.Pos()) {
				out = append(out, n.Pos())
			}
		}
		return true
	})
	return out
}

// unsyncedOutsideUse returns the position of a use of v outside the go
// statement that is not separated from the spawn by a barrier, or NoPos.
// Uses lexically before the spawn are sequenced before it and safe.
func unsyncedOutsideUse(info *types.Info, body *ast.BlockStmt, g *ast.GoStmt, v *types.Var, barriers []token.Pos) token.Pos {
	found := token.NoPos
	ast.Inspect(body, func(n ast.Node) bool {
		if found != token.NoPos {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || info.Uses[id] != v {
			return true
		}
		pos := id.Pos()
		if pos >= g.Pos() && pos <= g.End() {
			return true // inside the goroutine (or its spawn expression)
		}
		if pos < g.Pos() {
			return true // sequenced before the spawn
		}
		for _, b := range barriers {
			if b > g.End() && b < pos {
				return true // a Wait/receive orders this use after the goroutine
			}
		}
		found = pos
		return false
	})
	return found
}
