package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"inplace/internal/analyzers/lintkit"
)

// LockSafe reports mutex-discipline violations, the failure class the
// daemon introduced: admission controller and spill registry both
// serialize hot-path state behind sync.Mutex/RWMutex, so a blocking
// call made while one is held turns a bounded critical section into a
// convoy (or a deadlock). Per function — including every function
// literal — a control-flow-graph dataflow tracks which locks may be
// held before each statement and flags
//
//   - blocking operations under a lock: channel sends and receives,
//     selects without a default, sync.WaitGroup.Wait/sync.Cond.Wait,
//     time.Sleep, file and network I/O (os/net/io/bufio/net-http
//     calls, and Read/Write/Close-shaped methods on interface values,
//     which are I/O by contract), and calls to same-package functions
//     whose own bodies may block (propagated through the call graph);
//   - re-acquiring a lock the path already holds (self-deadlock);
//   - inconsistent acquisition order: if one function ever holds A
//     while taking B and another holds B while taking A, both sites
//     are reported;
//   - locks still held on some return path with no deferred unlock.
//
// close(ch) and non-blocking selects are exempt; goroutine bodies are
// analyzed as their own functions (spawning under a lock is fine).
var LockSafe = &lintkit.Analyzer{
	Name: "locksafe",
	Doc:  "no blocking calls, lock-order inversions or leaked critical sections while a mutex is held",
	Run:  runLockSafe,
}

// Fact values for the lock lattice: the key is the lock's canonical
// receiver expression (plus ":r" for read locks), present means "may
// be held here".
const lockHeld = 1

// lockSummary is the per-function syntactic summary propagated through
// the same-package call graph.
type lockSummary struct {
	// acquires maps lock class → a position where this function (or a
	// same-package callee) takes that lock.
	acquires map[string]token.Pos
	// mayBlock is set when the function contains a blocking operation
	// anywhere in its body (conservative: callers holding a lock must
	// assume the worst), with a short reason for messages.
	mayBlock string
}

// lockOrderEdge records "class a was held while class b was acquired"
// for the package-wide order check.
type lockOrderEdge struct {
	pos token.Pos
	fn  string
}

func runLockSafe(pass *lintkit.Pass) error {
	cg := pass.CallGraph()

	// Pass 1: syntactic summaries, then propagate through same-package
	// calls to a fixpoint so "calls a helper that blocks" is visible.
	sums := map[types.Object]*lockSummary{}
	for obj, fn := range cg.Decls {
		sums[obj] = scanLockSummary(pass, fn.Body)
	}
	for changed := true; changed; {
		changed = false
		for obj := range sums {
			s := sums[obj]
			for _, callee := range cg.Callees[obj] {
				cs := sums[callee]
				if cs == nil {
					continue
				}
				if s.mayBlock == "" && cs.mayBlock != "" {
					s.mayBlock = "calls " + callee.Name() + ", which may block"
					changed = true
				}
				for class, pos := range cs.acquires {
					if _, ok := s.acquires[class]; !ok {
						s.acquires[class] = pos
						changed = true
					}
				}
			}
		}
	}

	// Pass 2: dataflow every function unit and collect order edges.
	order := map[[2]string][]lockOrderEdge{}
	for _, fn := range sortedDecls(cg) {
		name := funcName(fn)
		checkLockUnit(pass, cg, sums, name, fn.Body, order)
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				checkLockUnit(pass, cg, sums, name+" (func literal)", lit.Body, order)
			}
			return true
		})
	}

	// Order inversions: a pair with edges in both directions. Sorted
	// iteration pins which direction carries the report, so the
	// diagnostic position is deterministic.
	pairs := make([][2]string, 0, len(order))
	for pair := range order {
		pairs = append(pairs, pair)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	reported := map[[2]string]bool{}
	for _, pair := range pairs {
		edges := order[pair]
		rev := [2]string{pair[1], pair[0]}
		back, ok := order[rev]
		if !ok || reported[pair] || reported[rev] {
			continue
		}
		reported[pair] = true
		e, b := edges[0], back[0]
		pass.Reportf(e.pos, "inconsistent lock order: %s held while acquiring %s in %s, but %s acquires them in the opposite order at %s",
			pair[0], pair[1], e.fn, b.fn, pass.Fset.Position(b.pos))
	}
	return nil
}

// sortedDecls returns the package's function declarations in file
// order, so diagnostics are deterministic.
func sortedDecls(cg *lintkit.CallGraph) []*ast.FuncDecl {
	out := make([]*ast.FuncDecl, 0, len(cg.Decls))
	for _, fn := range cg.Decls {
		out = append(out, fn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// checkLockUnit runs the lock dataflow over one function body.
func checkLockUnit(pass *lintkit.Pass, cg *lintkit.CallGraph, sums map[types.Object]*lockSummary, name string, body *ast.BlockStmt, order map[[2]string][]lockOrderEdge) {
	info := pass.TypesInfo
	cfg := lintkit.NewCFG(body)

	// Comm statements of select clauses: their send/receive is the
	// select's choice, already judged at the SelectStmt node.
	comm := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if sel, ok := n.(*ast.SelectStmt); ok {
			for _, cc := range sel.Body.List {
				if c := cc.(*ast.CommClause); c.Comm != nil {
					comm[c.Comm] = true
				}
			}
		}
		return true
	})

	// Deferred unlocks release at exit; collect them (including
	// unlocks inside deferred function literals) for the leak check.
	deferred := map[any]bool{}
	for _, d := range cfg.Defers {
		scanSyncOps(d.Call, func(n ast.Node) {
			if call, ok := n.(*ast.CallExpr); ok {
				if key, _, acq, ok := lockOpOf(info, call); ok && !acq {
					deferred[key] = true
				}
			}
		})
		if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
			scanSyncOps(lit.Body, func(n ast.Node) {
				if call, ok := n.(*ast.CallExpr); ok {
					if key, _, acq, ok := lockOpOf(info, call); ok && !acq {
						deferred[key] = true
					}
				}
			})
		}
	}

	classOf := map[any]string{}
	lockPos := map[any]token.Pos{}
	transfer := func(n ast.Node, f lintkit.FactMap) {
		if _, ok := n.(*ast.DeferStmt); ok {
			return // runs at exit, not here
		}
		scanSyncOps(n, func(sub ast.Node) {
			call, ok := sub.(*ast.CallExpr)
			if !ok {
				return
			}
			if key, class, acq, ok := lockOpOf(info, call); ok {
				if acq {
					f[key] = lockHeld
					classOf[key] = class
					if _, ok := lockPos[key]; !ok {
						lockPos[key] = call.Pos()
					}
				} else {
					delete(f, key)
				}
			}
		})
	}

	visit := func(n ast.Node, f lintkit.FactMap) {
		if len(f) == 0 {
			return
		}
		if _, ok := n.(*ast.DeferStmt); ok {
			return
		}
		held := heldKeys(f)
		scanSyncOps(n, func(sub ast.Node) {
			switch e := sub.(type) {
			case *ast.SendStmt:
				if !comm[n] {
					pass.Reportf(e.Pos(), "channel send while %s is held in %s; release the lock first", lockName(held[0]), name)
				}
			case *ast.UnaryExpr:
				if e.Op == token.ARROW && !comm[n] {
					pass.Reportf(e.Pos(), "channel receive while %s is held in %s; release the lock first", lockName(held[0]), name)
				}
			case *ast.SelectStmt:
				if !selectHasDefault(e) {
					pass.Reportf(e.Pos(), "blocking select while %s is held in %s; release the lock first", lockName(held[0]), name)
				}
			case *ast.CallExpr:
				if key, class, acq, ok := lockOpOf(info, e); ok {
					if acq {
						if _, already := f[key]; already {
							pass.Reportf(e.Pos(), "%s acquired in %s while a path already holds it (self-deadlock)", lockName(key), name)
						}
						for _, h := range held {
							if hc := classOf[h]; hc != "" && hc != class {
								order[[2]string{hc, class}] = append(order[[2]string{hc, class}], lockOrderEdge{pos: e.Pos(), fn: name})
							}
						}
					}
					return
				}
				if why := blockingCall(info, e); why != "" {
					pass.Reportf(e.Pos(), "%s while %s is held in %s; release the lock first", why, lockName(held[0]), name)
					return
				}
				if obj, decl := cg.DeclOf(info, e); decl != nil {
					s := sums[obj]
					if s == nil {
						return
					}
					if s.mayBlock != "" {
						pass.Reportf(e.Pos(), "call to %s (%s) while %s is held in %s; release the lock first", obj.Name(), s.mayBlock, lockName(held[0]), name)
					}
					for class := range s.acquires {
						for _, h := range held {
							if hc := classOf[h]; hc != "" && hc != class {
								order[[2]string{hc, class}] = append(order[[2]string{hc, class}], lockOrderEdge{pos: e.Pos(), fn: name})
							}
						}
					}
				}
			}
		})
	}

	in := cfg.Forward(lintkit.FactMap{}, transfer, nil)
	cfg.EachNode(in, transfer, visit)

	for _, key := range heldKeys(cfg.ExitFacts(in)) {
		if deferred[key] {
			continue
		}
		pos := lockPos[key]
		if !pos.IsValid() {
			continue
		}
		pass.Reportf(pos, "%s may still be held on a return path of %s; unlock on every path or defer the unlock", lockName(key), name)
	}
}

// heldKeys returns the held lock keys sorted for deterministic
// messages.
func heldKeys(f lintkit.FactMap) []any {
	var out []any
	for k := range f {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].(string) < out[j].(string) })
	return out
}

// lockName renders a lock fact key for messages.
func lockName(key any) string {
	s := key.(string)
	if k, ok := strings.CutSuffix(s, ":r"); ok {
		return k + " (read lock)"
	}
	return s
}

// scanSyncOps walks the subtree of one CFG node visiting everything
// that executes synchronously at that point: function-literal bodies
// are skipped (they run at call time), as are go and defer statements
// (their calls run on another goroutine or at function exit). A select
// statement is visited itself but its clauses are not descended into —
// in the CFG each comm statement and clause body is its own node.
func scanSyncOps(n ast.Node, visit func(ast.Node)) {
	ast.Inspect(n, func(sub ast.Node) bool {
		if sub == nil {
			return false
		}
		switch sub.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.SelectStmt:
			visit(sub)
			return false
		}
		visit(sub)
		return true
	})
}

// lockOpOf classifies a call as a sync.Mutex/RWMutex lock or unlock.
// key is the canonical receiver expression (":r"-suffixed for read
// locks); class is the receiver's type-level identity used for
// cross-function ordering.
func lockOpOf(info *types.Info, call *ast.CallExpr) (key, class string, acquire, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false, false
	}
	name := sel.Sel.Name
	switch name {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
	default:
		return "", "", false, false
	}
	t := info.Types[sel.X].Type
	if t == nil {
		return "", "", false, false
	}
	if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return "", "", false, false
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
	default:
		return "", "", false, false
	}
	key = types.ExprString(sel.X)
	class = lockClass(info, sel.X)
	if name == "RLock" || name == "RUnlock" || name == "TryRLock" {
		key += ":r"
	}
	acquire = name == "Lock" || name == "RLock" || name == "TryLock" || name == "TryRLock"
	return key, class, acquire, true
}

// lockClass names the type-level identity of a lock receiver so the
// order check compares j.mu in one function with j2.mu in another:
// package-level variables keep their name, fields are named by their
// owning type.
func lockClass(info *types.Info, e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		if obj := info.Uses[x]; obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return "pkg:" + obj.Name()
		}
		return "local:" + x.Name
	case *ast.SelectorExpr:
		base := lockClass(info, x.X)
		if strings.HasPrefix(base, "pkg:") || strings.HasPrefix(base, "type:") {
			return base + "." + x.Sel.Name
		}
		// Name the field by the receiver's type instead of the local
		// variable holding it.
		if t := info.Types[x.X].Type; t != nil {
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return "type:" + named.Obj().Name() + "." + x.Sel.Name
			}
		}
		return base + "." + x.Sel.Name
	default:
		return types.ExprString(e)
	}
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, cc := range s.Body.List {
		if c, ok := cc.(*ast.CommClause); ok && c.Comm == nil {
			return true
		}
	}
	return false
}

// ioMethodNames are method names treated as I/O when called on a type
// from an I/O package or on an interface value (interfaces with these
// shapes — io.Reader, net.Conn, net.Listener — are I/O by contract).
var ioMethodNames = map[string]bool{
	"Read": true, "Write": true, "ReadAt": true, "WriteAt": true,
	"ReadFrom": true, "WriteTo": true, "Flush": true, "Close": true,
	"Sync": true, "Seek": true, "Accept": true, "Truncate": true,
	"ReadByte": true, "WriteByte": true, "WriteString": true,
	"ReadString": true, "ReadBytes": true, "Peek": true, "Discard": true,
}

// ioFuncNames are package-level functions treated as I/O when they
// come from an I/O package.
var ioFuncNames = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"ReadFile": true, "WriteFile": true, "Remove": true, "RemoveAll": true,
	"Rename": true, "Mkdir": true, "MkdirAll": true, "MkdirTemp": true,
	"ReadDir": true, "Stat": true, "Lstat": true, "Copy": true,
	"CopyN": true, "ReadAll": true, "ReadFull": true, "Listen": true,
	"Dial": true, "DialTimeout": true, "Pipe": true,
}

var ioPkgs = map[string]bool{
	"os": true, "io": true, "io/ioutil": true, "net": true,
	"net/http": true, "bufio": true,
}

// blockingCall classifies a call expression that may block the calling
// goroutine, returning a short description or "".
func blockingCall(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	name := sel.Sel.Name
	obj := info.Uses[sel.Sel]
	if obj == nil {
		return ""
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return ""
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		// Method call: classify by receiver.
		recv := sig.Recv().Type()
		if p, isPtr := recv.Underlying().(*types.Pointer); isPtr {
			recv = p.Elem()
		}
		// The static receiver may be the interface itself.
		if t := info.Types[sel.X].Type; t != nil {
			if _, isIface := t.Underlying().(*types.Interface); isIface && ioMethodNames[name] {
				return "I/O call " + types.ExprString(call.Fun)
			}
		}
		if named, isNamed := recv.(*types.Named); isNamed && named.Obj().Pkg() != nil {
			pkg := named.Obj().Pkg().Path()
			tname := named.Obj().Name()
			if pkg == "sync" && name == "Wait" {
				return "sync." + tname + ".Wait"
			}
			if ioPkgs[pkg] && ioMethodNames[name] {
				return "I/O call " + types.ExprString(call.Fun)
			}
		}
		return ""
	}
	// Package function call.
	pkg := pkgPathOf(obj)
	if pkg == "time" && name == "Sleep" {
		return "time.Sleep"
	}
	if ioPkgs[pkg] && (ioFuncNames[name] || ioMethodNames[name]) {
		return "I/O call " + pkg + "." + name
	}
	return ""
}

// scanLockSummary computes the syntactic part of a function's lock
// summary: locks it acquires and whether it contains a blocking
// operation, anywhere in its body (function literals included — a
// caller cannot tell which part runs under its lock).
func scanLockSummary(pass *lintkit.Pass, body *ast.BlockStmt) *lockSummary {
	info := pass.TypesInfo
	s := &lockSummary{acquires: map[string]token.Pos{}}
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.GoStmt:
			return false // runs on another goroutine
		case *ast.SendStmt:
			if s.mayBlock == "" {
				s.mayBlock = "channel send"
			}
		case *ast.UnaryExpr:
			if e.Op == token.ARROW && s.mayBlock == "" {
				s.mayBlock = "channel receive"
			}
		case *ast.SelectStmt:
			if !selectHasDefault(e) && s.mayBlock == "" {
				s.mayBlock = "blocking select"
			}
		case *ast.CallExpr:
			if _, class, acq, ok := lockOpOf(info, e); ok {
				if acq {
					if _, seen := s.acquires[class]; !seen {
						s.acquires[class] = e.Pos()
					}
				}
				return true
			}
			if why := blockingCall(info, e); why != "" && s.mayBlock == "" {
				s.mayBlock = why
			}
		}
		return true
	})
	return s
}
