package callsum

import (
	"go/ast"
	"go/token"
	"go/types"

	"sdds/internal/analysis"
)

// SimPackage is the import path of the discrete-event engine; *sim.Event
// retention is tracked against it and the engine's own free-list
// bookkeeping is exempt. A var so fixture tests can rebind it.
var SimPackage = "sdds/internal/sim"

// globalRandFuncs are the package-level math/rand (and v2) functions
// drawing from the globally-seeded source. Deterministic constructors
// (New, NewSource, NewZipf) stay allowed.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
	// math/rand/v2 additions.
	"N": true, "IntN": true, "Int32": true, "Int32N": true, "Int64N": true,
	"Uint": true, "UintN": true, "Uint32N": true, "Uint64N": true,
}

// allocStrings / allocStrconv are the string-building stdlib helpers whose
// every call allocates its result.
var allocStrings = map[string]bool{
	"Join": true, "Repeat": true, "Split": true, "SplitN": true,
	"Fields": true, "Replace": true, "ReplaceAll": true,
	"ToUpper": true, "ToLower": true, "Title": true, "Map": true,
}

var allocStrconv = map[string]bool{
	"FormatFloat": true, "FormatInt": true, "FormatUint": true,
	"Itoa": true, "Quote": true, "AppendQuote": true,
}

// callSite is one resolved static call to a module-local function,
// annotated with the lock-held context it happens under.
type callSite struct {
	pos    token.Pos
	callee *types.Func
	held   []string // lock identities held at the call
	async  bool     // inside a `go` statement's body
}

// funcFacts pairs a function's in-progress summary with the call sites the
// package-level fixpoint still has to merge.
type funcFacts struct {
	sum   *Summary
	calls []callSite
}

type walker struct {
	s   *Summaries
	pkg *analysis.Package
	ign *analysis.IgnoreIndex
	fd  *ast.FuncDecl
	f   *funcFacts

	held    []string // lock identities currently held (linear approximation)
	async   bool     // inside a `go` body: blocking doesn't block the caller
	noBlock int      // >0 inside select comm clauses: their ops don't block
}

func (s *Summaries) walkFunc(pkg *analysis.Package, ign *analysis.IgnoreIndex, fd *ast.FuncDecl, fn *types.Func) *funcFacts {
	w := &walker{
		s: s, pkg: pkg, ign: ign, fd: fd,
		f: &funcFacts{sum: &Summary{Fn: fn, Hotpath: analysis.IsHotpath(fd)}},
	}
	w.walk(fd.Body)
	return w.f
}

func (w *walker) walk(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			w.goStmt(n)
			return false
		case *ast.DeferStmt:
			if w.isUnlockCall(n.Call) {
				return false // deferred unlock: the lock stays held to return
			}
			return true
		case *ast.SelectStmt:
			w.selectStmt(n)
			return false
		case *ast.SendStmt:
			w.blocker(n.Pos(), "channel send")
		case *ast.UnaryExpr:
			switch n.Op {
			case token.ARROW:
				w.blocker(n.Pos(), "channel receive")
			case token.AND:
				if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					w.intrinsic(Alloc, n.Pos(), "&composite literal allocates")
					for _, elt := range lit.Elts {
						w.walk(elt) // field values run: time.Now(), helper calls
					}
					return false // the literal itself is the one allocation above
				}
			}
		case *ast.RangeStmt:
			if t, ok := w.pkg.Info.Types[n.X]; ok {
				switch t.Type.Underlying().(type) {
				case *types.Chan:
					w.blocker(n.Pos(), "range over channel")
				case *types.Map:
					w.mapOrder(n)
				}
			}
		case *ast.CallExpr:
			w.call(n)
		case *ast.FuncLit:
			if analysis.Captures(w.pkg.Info, n) {
				w.intrinsic(Alloc, n.Pos(), "capturing closure allocates")
			}
		case *ast.CompositeLit:
			if t, ok := w.pkg.Info.Types[n]; ok {
				switch t.Type.Underlying().(type) {
				case *types.Slice, *types.Map:
					w.intrinsic(Alloc, n.Pos(), "slice/map literal allocates")
				}
			}
		case *ast.AssignStmt:
			w.assign(n)
		}
		return true
	})
}

// goStmt walks a goroutine body in a fresh held-lock context: its blocking
// doesn't block the spawning function, but effects and held-blocking
// inside it are still the function's doing.
func (w *walker) goStmt(n *ast.GoStmt) {
	savedHeld, savedAsync := w.held, w.async
	w.held, w.async = nil, true
	if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
		if analysis.Captures(w.pkg.Info, lit) {
			w.intrinsic(Alloc, lit.Pos(), "capturing closure allocates")
		}
		w.goAccumulate(lit)
		w.walk(lit.Body)
	} else {
		w.call(n.Call)
	}
	w.held, w.async = savedHeld, savedAsync
	for _, arg := range n.Call.Args {
		w.walk(arg) // arguments are evaluated synchronously, locks held
	}
}

// selectStmt: a select with a default never blocks; its comm operations
// (the sends/receives in the case headers) are non-blocking by
// construction either way, so they're walked under noBlock.
func (w *walker) selectStmt(n *ast.SelectStmt) {
	hasDefault := false
	for _, c := range n.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		w.blocker(n.Pos(), "select without default")
	}
	for _, c := range n.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm != nil {
			w.noBlock++
			w.walk(cc.Comm)
			w.noBlock--
		}
		for _, st := range cc.Body {
			w.walk(st)
		}
	}
}

// intrinsic records a leaf effect, unless an ignore directive at the site
// justifies it (the check runs even when the effect is already set, so
// every suppressing directive is marked used for the stale audit).
func (w *walker) intrinsic(k EffectKind, pos token.Pos, detail string) {
	if w.ign.Suppressed(suppressors[k], pos) {
		return
	}
	if w.f.sum.effects[k] != nil {
		return
	}
	w.f.sum.effects[k] = &Cause{Pos: pos, Detail: detail}
}

// blocker records a may-block site: Blocks for the synchronous context,
// HeldBlocks for every lock currently held.
func (w *walker) blocker(pos token.Pos, detail string) {
	if w.noBlock > 0 {
		return
	}
	if w.ign.Suppressed("locksafe", pos) {
		return
	}
	sum := w.f.sum
	if !w.async && sum.Blocks == nil {
		sum.Blocks = &Cause{Pos: pos, Detail: detail}
	}
	for _, id := range w.held {
		if sum.HeldBlocks[id] == nil {
			sum.setHeldBlock(id, &Cause{Pos: pos, Detail: detail})
		}
	}
}

func (w *walker) call(call *ast.CallExpr) {
	fn := analysis.CalleeFunc(w.pkg.Info, call)
	if fn == nil {
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := w.pkg.Info.Uses[id].(*types.Builtin); ok {
				switch b.Name() {
				case "new":
					w.intrinsic(Alloc, call.Pos(), "new(...) allocates")
				case "make":
					w.intrinsic(Alloc, call.Pos(), "make(...) allocates")
				}
			}
		}
		return
	}
	if fn.Pkg() == nil {
		return
	}
	// A call to a method of a generic type resolves to the instantiated
	// method; summaries are keyed by the generic declaration.
	fn = fn.Origin()
	if fn.Pkg().Path() == "sync" && w.syncCall(call, fn) {
		return
	}
	if w.s.mod.Package(fn.Pkg().Path()) != nil {
		w.f.calls = append(w.f.calls, callSite{
			pos:    call.Pos(),
			callee: fn,
			held:   append([]string(nil), w.held...),
			async:  w.async,
		})
		return
	}
	w.external(call, fn)
}

// syncCall interprets the sync package: mutex acquire/release drives the
// held set and the Locks summary; WaitGroup/Cond Wait are blockers.
func (w *walker) syncCall(call *ast.CallExpr, fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
		id := w.lockID(call)
		switch fn.Name() {
		case "Lock", "RLock":
			if id != "" && !w.ign.Suppressed("locksafe", call.Pos()) {
				if w.f.sum.Locks[id] == nil {
					w.f.sum.setLock(id, &Cause{Pos: call.Pos(), Detail: "acquires " + id})
				}
				w.held = append(w.held[:len(w.held):len(w.held)], id)
			}
			return true
		case "Unlock", "RUnlock":
			for i := len(w.held) - 1; i >= 0; i-- {
				if w.held[i] == id {
					w.held = append(w.held[:i:i], w.held[i+1:]...)
					break
				}
			}
			return true
		}
	case "WaitGroup", "Cond":
		if fn.Name() == "Wait" {
			w.blocker(call.Pos(), "sync."+named.Obj().Name()+".Wait")
			return true
		}
	}
	return false
}

// isUnlockCall reports whether call is a mutex Unlock/RUnlock (the deferred
// form that keeps the lock held to function end).
func (w *walker) isUnlockCall(call *ast.CallExpr) bool {
	fn := analysis.CalleeFunc(w.pkg.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	return fn.Name() == "Unlock" || fn.Name() == "RUnlock"
}

// lockID names the mutex a Lock/Unlock call operates on:
// "pkgpath.Type.field" for struct fields, "pkgpath.var" for package-level
// mutexes, "" for locals and anything unresolvable.
func (w *walker) lockID(call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	switch recv := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		t, ok := w.pkg.Info.Types[recv.X]
		if !ok {
			return ""
		}
		tt := t.Type
		if ptr, ok := tt.(*types.Pointer); ok {
			tt = ptr.Elem()
		}
		named, ok := tt.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return ""
		}
		return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + recv.Sel.Name
	case *ast.Ident:
		v, ok := analysis.ObjOf(w.pkg.Info, recv).(*types.Var)
		if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
			return ""
		}
		return v.Pkg().Path() + "." + v.Name()
	}
	return ""
}

// external classifies calls into packages outside the module.
func (w *walker) external(call *ast.CallExpr, fn *types.Func) {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return // stdlib methods: none classified
	}
	name := fn.Name()
	switch fn.Pkg().Path() {
	case "time":
		switch name {
		case "Now", "Since", "Until", "After", "Tick":
			w.intrinsic(WallClock, call.Pos(), "time."+name)
		case "Sleep":
			w.intrinsic(WallClock, call.Pos(), "time.Sleep")
			w.blocker(call.Pos(), "time.Sleep")
		}
	case "math/rand", "math/rand/v2":
		if globalRandFuncs[name] {
			w.intrinsic(GlobalRand, call.Pos(), "global math/rand."+name)
		}
	case "fmt":
		w.intrinsic(Alloc, call.Pos(), "fmt."+name+" allocates")
	case "encoding/json":
		w.intrinsic(Alloc, call.Pos(), "json."+name+" allocates")
	case "errors":
		if name == "New" || name == "Join" {
			w.intrinsic(Alloc, call.Pos(), "errors."+name+" allocates")
		}
	case "strings":
		if allocStrings[name] {
			w.intrinsic(Alloc, call.Pos(), "strings."+name+" allocates")
		}
	case "strconv":
		if allocStrconv[name] {
			w.intrinsic(Alloc, call.Pos(), "strconv."+name+" allocates")
		}
	case "sort":
		if name == "Slice" || name == "SliceStable" {
			w.intrinsic(Alloc, call.Pos(), "sort."+name+" allocates")
		}
	}
}

// mapOrder scans a map-range body for what iteration order can decide: a
// call (it may schedule events or mutate state in visit order), an append
// to an outer slice nobody sorts afterwards, a last-writer-wins store, or a
// float accumulation into outer state.
func (w *walker) mapOrder(rng *ast.RangeStmt) {
	info := w.pkg.Info
	keyIdent, _ := rng.Key.(*ast.Ident)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // deferred work: not executed in iteration order here
		case *ast.CallExpr:
			if fn := analysis.CalleeFunc(info, n); fn != nil {
				w.intrinsic(MapOrder, n.Pos(), "call to "+fn.Name()+" inside map iteration")
				return false
			}
			if isAppendCall(info, n) && len(n.Args) > 0 {
				if root := analysis.RootIdent(n.Args[0]); root != nil &&
					analysis.DeclaredOutside(info, root, rng.Pos(), rng.End()) &&
					!sortedAfter(info, w.fd, rng, root) {
					w.intrinsic(MapOrder, n.Pos(), "append to "+root.Name+" in map-iteration order")
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			commutative := n.Tok != token.ASSIGN
			for i, lhs := range n.Lhs {
				if i < len(n.Rhs) && isAppendCall(info, n.Rhs[i]) {
					continue // owned by the append arm
				}
				if constantStore(info, n, i) {
					continue // same value every iteration: order-free
				}
				if orderSensitiveStore(info, rng, keyIdent, lhs, commutative) {
					what := "last-writer-wins store to outer state in map-iteration order"
					if commutative {
						what = "float accumulation into outer state in map-iteration order"
					}
					w.intrinsic(MapOrder, n.Pos(), what)
				}
			}
		case *ast.IncDecStmt:
			if orderSensitiveStore(info, rng, keyIdent, n.X, true) {
				w.intrinsic(MapOrder, n.Pos(), "float update in map-iteration order")
			}
		}
		return true
	})
}

// goAccumulate records float compound assignments from a `go` body into
// state declared outside it: the reduction order follows the scheduler.
func (w *walker) goAccumulate(lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok == token.ASSIGN || as.Tok == token.DEFINE {
			return true
		}
		for _, lhs := range as.Lhs {
			if orderSensitiveStore(w.pkg.Info, lit, nil, lhs, true) {
				w.intrinsic(MapOrder, as.Pos(), "float accumulation into shared state from a goroutine")
			}
		}
		return true
	})
}

// assign records *sim.Event retention: a non-retained event (a parameter,
// or the result of Engine.Schedule/ScheduleAt) stored into a field,
// element, or package-level variable. The engine's own package is exempt —
// the free list stores events by design.
func (w *walker) assign(as *ast.AssignStmt) {
	if w.pkg.PkgPath == SimPackage {
		return
	}
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		t, ok := w.pkg.Info.Types[as.Rhs[i]]
		if !ok || !analysis.IsPointerTo(t.Type, SimPackage, "Event") {
			continue
		}
		if !retainingLval(w.pkg.Info, lhs) {
			continue
		}
		if src := w.retainSource(as.Rhs[i]); src != "" {
			w.intrinsic(RetainEvent, as.Pos(), "stores *sim.Event ("+src+")")
		}
	}
}

// retainingLval reports whether the store target outlives the enclosing
// call frame: a field, an element, or a package-level variable.
func retainingLval(info *types.Info, lhs ast.Expr) bool {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr, *ast.IndexExpr:
		return true
	case *ast.Ident:
		v, ok := analysis.ObjOf(info, l).(*types.Var)
		return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
	}
	return false
}

// retainSource describes why the stored event is non-retained: "" means the
// flow isn't tracked here (eventretain's per-function analysis is the
// precise check for local flows).
func (w *walker) retainSource(rhs ast.Expr) string {
	switch r := ast.Unparen(rhs).(type) {
	case *ast.CallExpr:
		fn := analysis.CalleeFunc(w.pkg.Info, r)
		if fn != nil && (fn.Name() == "Schedule" || fn.Name() == "ScheduleAt") &&
			analysis.IsMethodOn(fn, SimPackage, "Engine") {
			return "from Engine." + fn.Name()
		}
	case *ast.Ident:
		if v, ok := analysis.ObjOf(w.pkg.Info, r).(*types.Var); ok && w.fd.Type.Params != nil {
			for _, field := range w.fd.Type.Params.List {
				for _, pn := range field.Names {
					if w.pkg.Info.Defs[pn] == v {
						return "parameter " + v.Name()
					}
				}
			}
		}
	}
	return ""
}

// ---------------------------------------------------------------------------
// Order-sensitivity helpers.

// isAppendCall reports whether e is a call to the builtin append.
func isAppendCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || analysis.CalleeFunc(info, call) != nil {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "append"
}

// sortedAfter reports whether the slice rooted at root is passed to a
// sort.* or slices.Sort* call after the map range ends: the
// collect-then-sort idiom fixes the order before anyone can observe it.
// scope is the enclosing function declaration; object identity on root
// confines the match to the right variable. The comparator is assumed total; sorting on
// a non-unique key would still leave ties in random relative order.
func sortedAfter(info *types.Info, scope ast.Node, rng *ast.RangeStmt, root *ast.Ident) bool {
	obj := analysis.ObjOf(info, root)
	if obj == nil || scope == nil {
		return false
	}
	sorted := false
	ast.Inspect(scope, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || len(call.Args) == 0 {
			return true
		}
		fn := analysis.CalleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		if r := analysis.RootIdent(call.Args[0]); r != nil && analysis.ObjOf(info, r) == obj {
			sorted = true
		}
		return true
	})
	return sorted
}

// constantStore reports whether as's i-th assignment stores a constant with
// plain `=`: every iteration writes the same value, so iteration order
// cannot be observed through it.
func constantStore(info *types.Info, as *ast.AssignStmt, i int) bool {
	if as.Tok != token.ASSIGN || i >= len(as.Rhs) {
		return false
	}
	tv, ok := info.Types[as.Rhs[i]]
	return ok && tv.Value != nil
}

// orderSensitiveStore decides whether storing through lhs inside scope (a
// map range, or a `go` body) can observe iteration or scheduling order. commutativeOp marks += style updates,
// which are exact (and therefore allowed) on integers but not on floats.
// Per-key stores into an outer map indexed by the loop key touch each slot
// exactly once and are order-free for both forms.
func orderSensitiveStore(info *types.Info, scope ast.Node, keyIdent *ast.Ident, lhs ast.Expr, commutativeOp bool) bool {
	root := analysis.RootIdent(lhs)
	if root == nil || root.Name == "_" {
		return false
	}
	if !analysis.DeclaredOutside(info, root, scope.Pos(), scope.End()) {
		return false
	}
	if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && keyIdent != nil {
		if baseT, ok := info.Types[idx.X]; ok {
			if _, isMap := baseT.Type.Underlying().(*types.Map); isMap {
				ko := analysis.ObjOf(info, keyIdent)
				if id, ok := ast.Unparen(idx.Index).(*ast.Ident); ok && ko != nil &&
					analysis.ObjOf(info, id) == ko {
					return false
				}
			}
		}
	}
	if commutativeOp {
		if t, ok := info.Types[lhs]; ok {
			if b, ok := t.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsFloat == 0 {
				return false
			}
		}
	}
	return true
}
