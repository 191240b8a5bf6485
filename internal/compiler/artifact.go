package compiler

import (
	"fmt"
	"time"

	"sdds/internal/core"
	"sdds/internal/loop"
)

// Provenance records where a run's compile pass came from.
type Provenance int

// Provenance values.
const (
	// ProvNone: no compile pass ran (scheduling disabled).
	ProvNone Provenance = iota
	// ProvCompiled: the pass ran fresh (cache miss or cache absent).
	ProvCompiled
	// ProvMemory: served from the in-process memo.
	ProvMemory
	// ProvStore: restored from the persistent artifact store.
	ProvStore
	// ProvUncacheable: compiled fresh because a non-serializable input
	// (custom region function, random tie breaker) defeats keying.
	ProvUncacheable
)

// String names the provenance; ProvNone is the empty string so
// scheduling-off runs render nothing.
func (p Provenance) String() string {
	switch p {
	case ProvCompiled:
		return "compiled"
	case ProvMemory:
		return "memo"
	case ProvStore:
		return "restored"
	case ProvUncacheable:
		return "uncacheable"
	default:
		return ""
	}
}

// ArtifactVersion is the serialization format version; Restore rejects
// any other value, so a format change invalidates persisted artifacts.
const ArtifactVersion = 1

// SlackRecord is the portable form of one loop.Slack.
type SlackRecord struct {
	Proc       int   `json:"proc"`
	Slot       int   `json:"slot"`
	Nest       int   `json:"nest"`
	Stmt       int   `json:"stmt"`
	Kind       int   `json:"kind"`
	File       int   `json:"file"`
	Offset     int64 `json:"offset"`
	Length     int64 `json:"length"`
	Begin      int   `json:"begin"`
	End        int   `json:"end"`
	WriterSlot int   `json:"writer_slot"`
}

// Artifact is the serializable mirror of a compile Result: the analyzed
// slacks plus the schedule's (access, point) assignments. Everything else
// in a Result — accesses, signatures, per-process tables — is a
// deterministic function of (slacks, assignments, program, options)
// and is rebuilt by Restore, which keeps the artifact small and leaves
// exactly one code path constructing scheduler inputs. Wall-clock compile
// time is deliberately excluded: artifacts are content-addressed and must
// be byte-identical across processes that compile the same key.
type Artifact struct {
	Version int    `json:"version"`
	Program string `json:"program"`
	Procs   int    `json:"procs"`
	// UsedProfiler mirrors Result.UsedProfiler (it is an analysis outcome,
	// not derivable from the slacks alone).
	UsedProfiler bool              `json:"used_profiler"`
	Slacks       []SlackRecord     `json:"slacks"`
	Points       []core.Assignment `json:"points"`
}

// Artifact extracts the serializable mirror of the result. The schedule's
// assignments are emitted sorted by access ID, so the rendering is
// independent of map iteration order — equal compiles yield byte-equal
// artifacts.
func (r *Result) Artifact() *Artifact {
	a := &Artifact{
		Version:      ArtifactVersion,
		Program:      r.Program.Name,
		Procs:        r.procs,
		UsedProfiler: r.UsedProfiler,
		Slacks:       make([]SlackRecord, len(r.Slacks)),
		Points:       r.Schedule.Assignments(),
	}
	for i, s := range r.Slacks {
		a.Slacks[i] = SlackRecord{
			Proc:       s.Inst.Proc,
			Slot:       s.Inst.Slot,
			Nest:       s.Inst.Nest,
			Stmt:       s.Inst.Stmt,
			Kind:       int(s.Inst.Kind),
			File:       s.Inst.File,
			Offset:     s.Inst.Offset,
			Length:     s.Inst.Length,
			Begin:      s.Begin,
			End:        s.End,
			WriterSlot: s.WriterSlot,
		}
	}
	return a
}

// Restore rebuilds a full compile Result from the artifact under the same
// (program, options) that produced it. The slacks are rehydrated from the
// artifact and must be strictly ascending in (slot, proc, nest, stmt), as
// the analyses emit them; accesses, signatures and the schedule are rebuilt
// through the same helpers the live compile pass uses, so a restored result
// drives a bit-identical simulation. CompileTime is the wall-clock cost of
// the restore itself.
func (a *Artifact) Restore(p *loop.Program, opts Options) (*Result, error) {
	start := time.Now() //sddsvet:ignore detflow -- wall-clock restore cost for CompileTime reporting, never feeds simulated results
	if a.Version != ArtifactVersion {
		return nil, fmt.Errorf("compiler: artifact version %d, want %d", a.Version, ArtifactVersion)
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.RandomTies != nil {
		return nil, fmt.Errorf("compiler: cannot restore an artifact under random tie-breaking")
	}
	if a.Program != p.Name {
		return nil, fmt.Errorf("compiler: artifact for program %q, want %q", a.Program, p.Name)
	}
	if a.Procs != opts.Procs {
		return nil, fmt.Errorf("compiler: artifact for %d procs, want %d", a.Procs, opts.Procs)
	}
	slacks := make([]loop.Slack, len(a.Slacks))
	for i, s := range a.Slacks {
		// The process id indexes the schedule's tables.
		if s.Proc < 0 || s.Proc >= opts.Procs {
			return nil, fmt.Errorf("compiler: artifact slack %d: proc %d outside [0,%d)", i, s.Proc, opts.Procs)
		}
		slacks[i] = loop.Slack{
			Inst: loop.IOInstance{
				Proc:   s.Proc,
				Slot:   s.Slot,
				Nest:   s.Nest,
				Stmt:   s.Stmt,
				Kind:   loop.StmtKind(s.Kind),
				File:   s.File,
				Offset: s.Offset,
				Length: s.Length,
			},
			Begin:      s.Begin,
			End:        s.End,
			WriterSlot: s.WriterSlot,
		}
		// AccessFor binary-searches the slacks.
		if i > 0 && compareInstance(slacks[i-1], slacks[i].Inst) >= 0 {
			return nil, fmt.Errorf("compiler: artifact slack %d: not after slack %d in (slot, proc, nest, stmt) order", i, i-1)
		}
	}

	numSlots := p.Slots(opts.Procs)
	d := coalesceFactor(opts)
	coalesced := (numSlots + d - 1) / d
	accesses := buildAccesses(slacks, opts, d)
	params := schedParams(opts, coalesced)

	// The schedule's points live in full-resolution slots (Rescale output
	// when d > 1). Re-anchor each scheduled access exactly as Rescale does
	// before rebuilding the tables.
	scheduleParams := params
	if d > 1 {
		scheduleParams.NumSlots = numSlots
	}
	assigns := make([]core.ScheduledAccess, len(a.Points))
	var anchored []core.Access
	if d > 1 {
		anchored = make([]core.Access, len(a.Points))
	}
	for i, pt := range a.Points {
		if pt.ID < 0 || pt.ID >= len(accesses) {
			return nil, fmt.Errorf("compiler: artifact point references access %d of %d", pt.ID, len(accesses))
		}
		acc := accesses[pt.ID]
		if d > 1 {
			begin, end := fullSlack(slacks[pt.ID], opts)
			anchored[i] = *acc
			anchored[i].Begin, anchored[i].End, anchored[i].Orig = begin, end, end
			acc = &anchored[i]
		}
		assigns[i] = core.ScheduledAccess{Access: acc, Point: pt.Point}
	}
	schedule, err := core.NewScheduleFromAssignments(scheduleParams, assigns)
	if err != nil {
		return nil, fmt.Errorf("compiler: artifact restore: %w", err)
	}

	return &Result{
		Program:      p,
		Slacks:       slacks,
		Accesses:     accesses,
		Schedule:     schedule,
		UsedProfiler: a.UsedProfiler,
		CompileTime:  time.Since(start), //sddsvet:ignore detflow -- wall-clock restore cost for CompileTime reporting, never feeds simulated results
		procs:        opts.Procs,
		params:       params,
	}, nil
}

// EquivalentResults reports whether two compile results would drive
// identical simulations: same slacks, same accesses, and the same
// schedule assignments and per-process tables. It is the round-trip pin
// the artifact store applies before persisting anything — an artifact
// whose restore is not equivalent to the live compile is never written.
func EquivalentResults(a, b *Result) error {
	if len(a.Slacks) != len(b.Slacks) {
		return fmt.Errorf("compiler: slack count %d vs %d", len(a.Slacks), len(b.Slacks))
	}
	for i := range a.Slacks {
		if a.Slacks[i] != b.Slacks[i] {
			return fmt.Errorf("compiler: slack %d differs", i)
		}
	}
	if len(a.Accesses) != len(b.Accesses) {
		return fmt.Errorf("compiler: access count %d vs %d", len(a.Accesses), len(b.Accesses))
	}
	for i := range a.Accesses {
		x, y := a.Accesses[i], b.Accesses[i]
		if x.ID != y.ID || x.Proc != y.Proc || x.Begin != y.Begin || x.End != y.End ||
			x.Length != y.Length || x.Orig != y.Orig || !x.Sig.Equal(y.Sig) {
			return fmt.Errorf("compiler: access %d differs", i)
		}
	}
	ap, bp := a.Schedule.Assignments(), b.Schedule.Assignments()
	if len(ap) != len(bp) {
		return fmt.Errorf("compiler: assignment count %d vs %d", len(ap), len(bp))
	}
	for i := range ap {
		if ap[i] != bp[i] {
			return fmt.Errorf("compiler: assignment %d differs: %+v vs %+v", i, ap[i], bp[i])
		}
	}
	aProcs, bProcs := a.Schedule.Procs(), b.Schedule.Procs()
	if len(aProcs) != len(bProcs) {
		return fmt.Errorf("compiler: table proc count %d vs %d", len(aProcs), len(bProcs))
	}
	for i := range aProcs {
		if aProcs[i] != bProcs[i] {
			return fmt.Errorf("compiler: table procs differ at %d", i)
		}
		at, bt := a.Schedule.Table(aProcs[i]), b.Schedule.Table(bProcs[i])
		if len(at) != len(bt) {
			return fmt.Errorf("compiler: proc %d table length %d vs %d", aProcs[i], len(at), len(bt))
		}
		for j := range at {
			if at[j] != bt[j] {
				return fmt.Errorf("compiler: proc %d table entry %d differs", aProcs[i], j)
			}
		}
	}
	if a.UsedProfiler != b.UsedProfiler {
		return fmt.Errorf("compiler: UsedProfiler %t vs %t", a.UsedProfiler, b.UsedProfiler)
	}
	return nil
}
