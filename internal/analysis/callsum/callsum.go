// Package callsum builds module-wide, per-function effect summaries: which
// contract-relevant effects (allocation, wall-clock reads, global-RNG draws,
// order-sensitive map iteration) and which locking
// behaviour (locks acquired, may-block, may-block-while-holding) a function
// has, directly or through any chain of calls. The per-function syntactic
// checks see one body at a time; the summaries let them follow a
// violation through helpers and across package boundaries and report the
// full call chain ("hotpath disk.transfer → ionode.flushBatch →
// fmt.Sprintf allocates").
//
// Summaries are computed bottom-up: a package's module-local dependencies
// are summarized before the package itself (Go package imports are acyclic,
// so cross-package recursion is impossible), and within a package the call
// graph is condensed into strongly connected components (Tarjan) processed
// callee-first, iterating each multi-function or self-recursive SCC to a
// fixpoint. The result is memoized per package on the shared engine, which
// itself lives on the analysis.Module (see Of), so every analyzer in a run
// shares one set of summaries.
//
// Precision notes, deliberate and documented:
//
//   - Calls through function values and interface methods have no summary
//     and contribute nothing. This keeps pre-bound sim.Handler dispatch and
//     callback invocation from smearing every caller with the callee set's
//     worst effects; direct per-function analyzers still see the bodies.
//   - An intrinsic effect whose site carries a matching //sddsvet:ignore is
//     dropped from the summary (and the directive counts as used for the
//     stale-suppression audit): a justified wall-clock read or warm-up
//     allocation does not taint every transitive caller.
//   - Lock identities are "pkgpath.Type.field" for struct mutex fields and
//     "pkgpath.var" for package-level mutexes; function-local locks are
//     ignored (nothing else can contend on them). Held-lock tracking is a
//     linear source-order approximation: a deferred Unlock keeps the lock
//     held to the end of the function.
//   - A `go` statement runs its body in a separate held-lock context: its
//     blocking does not block the spawning function (Blocks is not
//     propagated), but blocking while holding a lock inside the goroutine is
//     still recorded (the lock is just as stuck), as are determinism and
//     allocation effects.
package callsum

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"sdds/internal/analysis"
)

// EffectKind enumerates the summarized effects.
type EffectKind int

const (
	// Alloc: performs a per-call heap allocation (closure, new, make,
	// composite literal, or a call into allocating stdlib like fmt).
	Alloc EffectKind = iota
	// WallClock: reads the wall clock (time.Now/Since/Until/Sleep/After).
	WallClock
	// GlobalRand: draws from the globally-seeded math/rand source.
	GlobalRand
	// MapOrder: lets map-iteration or goroutine-scheduling order decide an
	// outcome — a call or an order-sensitive store inside a map range, or a
	// float accumulation into shared state from a `go` body.
	MapOrder

	numEffects
)

var kindNames = [numEffects]string{
	Alloc:      "alloc",
	WallClock:  "wall-clock",
	GlobalRand: "global-rand",
	MapOrder:   "map-order",
}

func (k EffectKind) String() string {
	if k < 0 || k >= numEffects {
		return "effect?"
	}
	return kindNames[k]
}

// suppressors maps each effect to the analyzer whose //sddsvet:ignore
// directives justify it at the intrinsic site: an ignored site is dropped
// from the summary so the effect never taints transitive callers.
var suppressors = [numEffects]string{
	Alloc:      "hotalloc",
	WallClock:  "detflow",
	GlobalRand: "detflow",
	MapOrder:   "detflow",
}

// Cause records why a summary has an effect: either an intrinsic operation
// (Detail set, Callee nil) or a call to a function whose own summary has it
// (Callee set). Following Callee links reconstructs the full chain.
type Cause struct {
	Pos    token.Pos
	Detail string      // intrinsic leaf: "fmt.Sprintf allocates"
	Callee *types.Func // via-call: the callee carrying the effect
}

// Summary is one function's effect summary. The first cause found (in
// source order, with callees' summaries merged bottom-up) wins per effect;
// richer structure isn't needed to produce one good diagnostic chain.
type Summary struct {
	Fn *types.Func
	// Hotpath records the //sddsvet:hotpath directive on the declaration.
	Hotpath bool

	effects [numEffects]*Cause

	// Locks maps lock identity → first cause acquiring it (directly or via
	// a call).
	Locks map[string]*Cause
	// Blocks is set when the function may block the calling goroutine
	// (channel ops, select without default, WaitGroup/Cond Wait,
	// time.Sleep, or a call to a blocking function).
	Blocks *Cause
	// HeldBlocks maps lock identity → first cause that may block while the
	// lock is held — the shape locksafe hunts for.
	HeldBlocks map[string]*Cause
}

// Effect returns the cause of effect k, or nil when the function (and
// everything it reaches) is free of it.
func (s *Summary) Effect(k EffectKind) *Cause { return s.effects[k] }

// Summaries is the module-wide summary engine. It is not safe for
// concurrent use; the driver runs packages sequentially.
type Summaries struct {
	mod    *analysis.Module
	byFunc map[*types.Func]*Summary
	done   map[string]bool // per-package memo, keyed by import path
}

// Of returns the module's shared summary engine, creating it on first use.
func Of(mod *analysis.Module) *Summaries {
	return mod.Fact("callsum", func(m *analysis.Module) any {
		return &Summaries{
			mod:    m,
			byFunc: make(map[*types.Func]*Summary),
			done:   make(map[string]bool),
		}
	}).(*Summaries)
}

// ForFunc returns fn's summary, summarizing its package (and every
// module-local dependency) on first use. A method of an instantiated
// generic type shares its generic declaration's summary. It returns nil
// for functions without summaries: externals, interface methods, and
// function values.
func (s *Summaries) ForFunc(fn *types.Func) *Summary {
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	s.ensurePackage(fn.Pkg().Path())
	return s.byFunc[fn.Origin()]
}

// ForPackage summarizes pkg (once) and every module-local dependency.
func (s *Summaries) ForPackage(pkg *analysis.Package) {
	s.ensurePackage(pkg.PkgPath)
}

// LookupFunc resolves a function (recv == "") or method declared in a
// loaded package, for configuring analyzer roots. Nil when not loaded or
// not found.
func (s *Summaries) LookupFunc(pkgPath, recv, name string) *types.Func {
	pkg := s.mod.Package(pkgPath)
	if pkg == nil {
		return nil
	}
	scope := pkg.Types.Scope()
	if recv == "" {
		fn, _ := scope.Lookup(name).(*types.Func)
		return fn
	}
	tn, _ := scope.Lookup(recv).(*types.TypeName)
	if tn == nil {
		return nil
	}
	named, _ := tn.Type().(*types.Named)
	if named == nil {
		return nil
	}
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Name() == name {
			return m
		}
	}
	return nil
}

func (s *Summaries) ensurePackage(path string) {
	if s.done[path] {
		return
	}
	s.done[path] = true
	pkg := s.mod.Package(path)
	if pkg == nil {
		return // stdlib or unloaded: no summaries
	}
	for _, imp := range pkg.Types.Imports() {
		s.ensurePackage(imp.Path())
	}
	s.summarizePackage(pkg)
}

// summarizePackage walks every declared function body once collecting
// intrinsic effects and call sites, then propagates callee summaries
// bottom-up over the intra-package SCC condensation.
func (s *Summaries) summarizePackage(pkg *analysis.Package) {
	ign := s.mod.Ignores(pkg)
	var fns []*types.Func
	facts := make(map[*types.Func]*funcFacts)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			ff := s.walkFunc(pkg, ign, fd, fn)
			facts[fn] = ff
			s.byFunc[fn] = ff.sum
			fns = append(fns, fn)
		}
	}
	for _, scc := range tarjan(fns, facts) {
		cyclic := len(scc) > 1
		if !cyclic {
			for _, cs := range facts[scc[0]].calls {
				if cs.callee == scc[0] {
					cyclic = true
					break
				}
			}
		}
		if !cyclic {
			s.propagate(facts[scc[0]])
			continue
		}
		for changed := true; changed; {
			changed = false
			for _, fn := range scc {
				if s.propagate(facts[fn]) {
					changed = true
				}
			}
		}
	}
}

// propagate merges each callee's summary into f's, returning whether
// anything new was learned (the SCC fixpoint condition).
func (s *Summaries) propagate(f *funcFacts) bool {
	changed := false
	sum := f.sum
	for _, cs := range f.calls {
		cal := s.byFunc[cs.callee]
		if cal == nil {
			continue
		}
		for k := EffectKind(0); k < numEffects; k++ {
			if sum.effects[k] == nil && cal.effects[k] != nil {
				sum.effects[k] = &Cause{Pos: cs.pos, Callee: cs.callee}
				changed = true
			}
		}
		for id := range cal.Locks {
			if sum.Locks[id] == nil {
				sum.setLock(id, &Cause{Pos: cs.pos, Callee: cs.callee})
				changed = true
			}
		}
		if !cs.async && sum.Blocks == nil && cal.Blocks != nil {
			sum.Blocks = &Cause{Pos: cs.pos, Callee: cs.callee}
			changed = true
		}
		for id := range cal.HeldBlocks {
			if sum.HeldBlocks[id] == nil {
				sum.setHeldBlock(id, &Cause{Pos: cs.pos, Callee: cs.callee})
				changed = true
			}
		}
		if cal.Blocks != nil {
			// Calling a blocking function while holding locks blocks
			// with them held.
			for _, id := range cs.held {
				if sum.HeldBlocks[id] == nil {
					sum.setHeldBlock(id, &Cause{Pos: cs.pos, Callee: cs.callee})
					changed = true
				}
			}
		}
	}
	return changed
}

func (s *Summary) setLock(id string, c *Cause) {
	if s.Locks == nil {
		s.Locks = make(map[string]*Cause)
	}
	s.Locks[id] = c
}

func (s *Summary) setHeldBlock(id string, c *Cause) {
	if s.HeldBlocks == nil {
		s.HeldBlocks = make(map[string]*Cause)
	}
	s.HeldBlocks[id] = c
}

// tarjan condenses the intra-package call graph into strongly connected
// components, emitted callee-first (reverse topological order of the
// condensation) — exactly the bottom-up processing order.
func tarjan(fns []*types.Func, facts map[*types.Func]*funcFacts) [][]*types.Func {
	index := make(map[*types.Func]int, len(fns))
	low := make(map[*types.Func]int, len(fns))
	onStack := make(map[*types.Func]bool, len(fns))
	var stack []*types.Func
	var sccs [][]*types.Func
	next := 0
	var strong func(fn *types.Func)
	strong = func(fn *types.Func) {
		index[fn] = next
		low[fn] = next
		next++
		stack = append(stack, fn)
		onStack[fn] = true
		for _, cs := range facts[fn].calls {
			cal := cs.callee
			if facts[cal] == nil {
				continue // cross-package: already summarized bottom-up
			}
			if _, seen := index[cal]; !seen {
				strong(cal)
				if low[cal] < low[fn] {
					low[fn] = low[cal]
				}
			} else if onStack[cal] {
				if index[cal] < low[fn] {
					low[fn] = index[cal]
				}
			}
		}
		if low[fn] == index[fn] {
			var scc []*types.Func
			for {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[top] = false
				scc = append(scc, top)
				if top == fn {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, fn := range fns {
		if _, seen := index[fn]; !seen {
			strong(fn)
		}
	}
	return sccs
}

// ---------------------------------------------------------------------------
// Chain reconstruction.

// EffectChain returns the call chain from fn down to the intrinsic cause of
// effect k: one step per function, the leaf step carrying the intrinsic
// detail as its Note.
func (s *Summaries) EffectChain(fn *types.Func, k EffectKind) []analysis.ChainStep {
	return s.chain(fn, func(sum *Summary) *Cause { return sum.effects[k] })
}

// LockChain traces how fn comes to acquire the identified lock.
func (s *Summaries) LockChain(fn *types.Func, id string) []analysis.ChainStep {
	return s.chain(fn, func(sum *Summary) *Cause { return sum.Locks[id] })
}

// HeldBlockChain traces how fn comes to block while holding the identified
// lock. Inner frames may carry plain Blocks causes: the lock was acquired
// higher up and the blocking callee need not know about it.
func (s *Summaries) HeldBlockChain(fn *types.Func, id string) []analysis.ChainStep {
	return s.chain(fn, func(sum *Summary) *Cause {
		if c := sum.HeldBlocks[id]; c != nil {
			return c
		}
		return sum.Blocks
	})
}

// CallChain prefixes an EffectChain of callee with the call site in caller:
// the shape every transitive diagnostic uses.
func (s *Summaries) CallChain(caller *types.Func, pos token.Pos, callee *types.Func, k EffectKind) []analysis.ChainStep {
	head := analysis.ChainStep{Func: FuncDisplay(caller), Pos: pos}
	return append([]analysis.ChainStep{head}, s.EffectChain(callee, k)...)
}

func (s *Summaries) chain(fn *types.Func, sel func(*Summary) *Cause) []analysis.ChainStep {
	var steps []analysis.ChainStep
	for depth := 0; fn != nil && depth < 32; depth++ {
		sum := s.ForFunc(fn)
		if sum == nil {
			break
		}
		c := sel(sum)
		if c == nil {
			break
		}
		step := analysis.ChainStep{Func: FuncDisplay(fn), Pos: c.Pos}
		if c.Callee == nil {
			step.Note = c.Detail
			steps = append(steps, step)
			break
		}
		steps = append(steps, step)
		fn = c.Callee
	}
	return steps
}

// Render formats a chain for embedding in a diagnostic message:
// "disk.Disk.transfer → ionode.Node.flushBatch → fmt.Sprintf allocates".
// Positions are deliberately left out — messages must stay stable across
// unrelated line churn so the committed baseline keys on them; positions
// travel in the structured Chain instead.
func Render(steps []analysis.ChainStep) string {
	parts := make([]string, 0, len(steps)+1)
	for _, st := range steps {
		parts = append(parts, st.Func)
	}
	if n := len(steps); n > 0 && steps[n-1].Note != "" {
		parts = append(parts, steps[n-1].Note)
	}
	return strings.Join(parts, " → ")
}

// FuncDisplay renders a function for chains: "pkg.Func" or
// "pkg.Type.Method".
func FuncDisplay(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	name := fn.Pkg().Name() + "."
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name += named.Obj().Name() + "."
		}
	}
	return name + fn.Name()
}
