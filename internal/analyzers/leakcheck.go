package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"

	"inplace/internal/analyzers/lintkit"
)

// LeakCheck reports goroutines and timers with no provable exit path.
// The daemon spawns goroutines per connection and per pipeline stage;
// one that can never return is a slow memory leak that no test
// catches. Per go statement the analyzer resolves the spawned body
// (function literal, or same-package function through the call graph)
// and demands that every unconditional `for {}` loop in it can escape
// — a return, a break, or a goto; ranging over a channel and bounded
// loops are fine. It also flags
//
//   - sync.WaitGroup.Add inside the spawned goroutine (it races the
//     corresponding Wait; Add must happen before the go statement);
//   - wg.Add(n) with a literal n that disagrees with the number of
//     goroutines calling wg.Done in the same function (both outside
//     loops, so the counts are static);
//   - time.After inside a loop (a new timer per iteration, none
//     collectable until they fire);
//   - time.NewTimer/NewTicker results that are never stopped, stored,
//     returned or passed on;
//   - time.Tick anywhere (its ticker can never be stopped).
var LeakCheck = &lintkit.Analyzer{
	Name: "leakcheck",
	Doc:  "every goroutine needs a provable exit path; timers must be stoppable",
	Run:  runLeakCheck,
}

func runLeakCheck(pass *lintkit.Pass) error {
	cg := pass.CallGraph()
	for _, fn := range sortedDecls(cg) {
		checkLeaks(pass, cg, fn)
	}
	return nil
}

func checkLeaks(pass *lintkit.Pass, cg *lintkit.CallGraph, fn *ast.FuncDecl) {
	info := pass.TypesInfo
	name := funcName(fn)

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.GoStmt:
			body, what := spawnedBody(info, cg, e)
			if body != nil {
				checkGoroutineExit(pass, e, body, what, name)
			}
		case *ast.CallExpr:
			if isPkgFunc(info, e, "time", "After") && inLoop(fn.Body, e) {
				pass.Reportf(e.Pos(), "time.After inside a loop in %s leaks a timer per iteration; hoist a time.NewTimer and Reset it", name)
			}
			if isPkgFunc(info, e, "time", "Tick") {
				pass.Reportf(e.Pos(), "time.Tick in %s leaks its ticker; use time.NewTicker and Stop it", name)
			}
		case *ast.AssignStmt:
			checkUnstoppedTimer(pass, fn, e, name)
		}
		return true
	})

	checkAddDoneBalance(pass, info, fn, name)
}

// spawnedBody resolves what a go statement runs: a function literal's
// body, or the declaration of a same-package function or method.
// Cross-package and computed callees return nil — the analyzer cannot
// see them and does not guess.
func spawnedBody(info *types.Info, cg *lintkit.CallGraph, g *ast.GoStmt) (*ast.BlockStmt, string) {
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		return lit.Body, "goroutine"
	}
	if obj, decl := cg.DeclOf(info, g.Call); decl != nil {
		return decl.Body, "goroutine " + obj.Name()
	}
	return nil, ""
}

// checkGoroutineExit flags unconditional loops in a spawned body that
// no statement can leave, and Add calls racing the spawner's Wait.
func checkGoroutineExit(pass *lintkit.Pass, g *ast.GoStmt, body *ast.BlockStmt, what, where string) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch e := n.(type) {
		case *ast.ForStmt:
			if e.Cond == nil && !loopCanEscape(e.Body) {
				pass.Reportf(g.Pos(), "%s started in %s loops forever: the for loop at line %d has no return, break or done-channel exit", what, where, pass.Fset.Position(e.Pos()).Line)
				return false
			}
		case *ast.CallExpr:
			if isWaitGroupMethod(pass.TypesInfo, e, "Add") {
				pass.Reportf(e.Pos(), "WaitGroup.Add inside the goroutine spawned by %s races its Wait; Add before the go statement", where)
			}
		}
		return true
	})
}

// loopCanEscape reports whether an unconditional loop body contains
// anything that can leave the loop: a return, break, or goto
// (conservatively at any nesting depth below the loop, excluding
// nested function literals).
func loopCanEscape(body *ast.BlockStmt) bool {
	escape := false
	ast.Inspect(body, func(n ast.Node) bool {
		if escape {
			return false
		}
		switch e := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			escape = true
		case *ast.BranchStmt:
			if e.Tok == token.BREAK || e.Tok == token.GOTO {
				escape = true
			}
		}
		return !escape
	})
	return escape
}

// isWaitGroupMethod matches a method call on a sync.WaitGroup value.
func isWaitGroupMethod(info *types.Info, call *ast.CallExpr, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	t := info.Types[sel.X].Type
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "WaitGroup"
}

// wgKey canonicalizes the receiver of a WaitGroup call for matching
// Add against Done.
func wgKey(call *ast.CallExpr) string {
	sel := call.Fun.(*ast.SelectorExpr)
	return types.ExprString(sel.X)
}

// checkAddDoneBalance compares literal wg.Add counts against the
// number of spawned goroutines calling Done on the same WaitGroup.
// Both sides must sit outside loops — a per-iteration Add(1) is the
// other idiom and cannot be counted statically.
func checkAddDoneBalance(pass *lintkit.Pass, info *types.Info, fn *ast.FuncDecl, name string) {
	adds := map[string]int{} // wg → summed literal Add argument
	addPos := map[string]token.Pos{}
	addOk := map[string]bool{} // false once a non-literal or in-loop Add appears
	dones := map[string]int{}  // wg → goroutines whose body calls Done
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if isWaitGroupMethod(info, e, "Add") && len(e.Args) == 1 {
				key := wgKey(e)
				if _, tracked := addOk[key]; !tracked {
					addOk[key] = true
				}
				lit, isLit := e.Args[0].(*ast.BasicLit)
				if !isLit || lit.Kind != token.INT || inLoop(fn.Body, e) {
					addOk[key] = false
					return true
				}
				v, err := strconv.Atoi(lit.Value)
				if err != nil {
					addOk[key] = false
					return true
				}
				adds[key] += v
				if !addPos[key].IsValid() {
					addPos[key] = e.Pos()
				}
			}
		case *ast.GoStmt:
			if inLoop(fn.Body, e) {
				// Spawn count is dynamic: give up on every WaitGroup
				// this goroutine touches.
				ast.Inspect(e.Call, func(sub ast.Node) bool {
					if c, ok := sub.(*ast.CallExpr); ok && isWaitGroupMethod(info, c, "Done") {
						addOk[wgKey(c)] = false
					}
					return true
				})
				return false
			}
			ast.Inspect(e.Call, func(sub ast.Node) bool {
				if c, ok := sub.(*ast.CallExpr); ok && isWaitGroupMethod(info, c, "Done") {
					dones[wgKey(c)]++
					return false
				}
				return true
			})
			return false
		}
		return true
	})
	for key, n := range adds {
		if !addOk[key] || dones[key] == 0 {
			continue
		}
		if n != dones[key] {
			pass.Reportf(addPos[key], "%s.Add(%d) in %s but %d goroutine(s) call %s.Done; the Wait can hang or fire early", key, n, name, dones[key], key)
		}
	}
}

// inLoop reports whether node n sits inside a for or range statement
// beneath root (excluding function literals between them).
func inLoop(root ast.Node, n ast.Node) bool {
	found := false
	ast.Inspect(root, func(outer ast.Node) bool {
		if found {
			return false
		}
		switch outer.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			if within(n, outer) && outer.Pos() != n.Pos() {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// checkUnstoppedTimer flags `t := time.NewTimer(...)` (and NewTicker)
// where t is a local that is never stopped, returned, stored into a
// field or container, or passed to another call.
func checkUnstoppedTimer(pass *lintkit.Pass, fn *ast.FuncDecl, assign *ast.AssignStmt, name string) {
	info := pass.TypesInfo
	if len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok || !(isPkgFunc(info, call, "time", "NewTimer") || isPkgFunc(info, call, "time", "NewTicker")) {
		return
	}
	id, ok := assign.Lhs[0].(*ast.Ident)
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
	kind := "timer"
	if isPkgFunc(info, call, "time", "NewTicker") {
		kind = "ticker"
	}
	if timerEscapes(info, fn.Body, obj) {
		return
	}
	pass.Reportf(assign.Pos(), "%s %s in %s is never stopped; defer %s.Stop() or hand it to an owner that stops it", kind, id.Name, name, id.Name)
}

// timerEscapes reports whether the timer object is stopped, returned,
// assigned onward, or passed to a call anywhere in the function.
func timerEscapes(info *types.Info, body *ast.BlockStmt, obj types.Object) bool {
	escapes := false
	ast.Inspect(body, func(n ast.Node) bool {
		if escapes {
			return false
		}
		switch e := n.(type) {
		case *ast.CallExpr:
			if sel, ok := e.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Stop" || sel.Sel.Name == "Reset") {
				if id, ok := sel.X.(*ast.Ident); ok && info.Uses[id] == obj {
					escapes = true
					return false
				}
			}
			for _, arg := range e.Args {
				if refersTo(info, arg, obj) {
					escapes = true
					return false
				}
			}
		case *ast.ReturnStmt:
			for _, r := range e.Results {
				if refersTo(info, r, obj) {
					escapes = true
					return false
				}
			}
		case *ast.AssignStmt:
			for _, r := range e.Rhs {
				if refersTo(info, r, obj) {
					escapes = true
					return false
				}
			}
		case *ast.SendStmt:
			if refersTo(info, e.Value, obj) {
				escapes = true
				return false
			}
		}
		return true
	})
	return escapes
}

// refersTo reports whether expr mentions obj.
func refersTo(info *types.Info, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
