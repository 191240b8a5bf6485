package cluster

import (
	"context"
	"fmt"

	"sdds/internal/compiler"
	"sdds/internal/disk"
	"sdds/internal/fault"
	"sdds/internal/ionode"
	"sdds/internal/loop"
	"sdds/internal/metrics"
	"sdds/internal/mpiio"
	"sdds/internal/power"
	"sdds/internal/probe"
	"sdds/internal/sched"
	"sdds/internal/sim"
)

// Result is the outcome of one run.
type Result struct {
	Program    string
	Policy     power.Kind
	Scheduling bool

	// ExecTime is when the last process finished.
	ExecTime sim.Duration
	// EnergyJ is total disk energy over the run (all nodes, all members).
	EnergyJ float64
	// NodeEnergyJ breaks energy down per I/O node.
	NodeEnergyJ []float64
	// Idle is the merged idle-period histogram across all disks (Fig. 12).
	Idle *metrics.IdleHistogram

	// Compile is the compiler output (nil when Scheduling is off).
	Compile *compiler.Result
	// CompileProvenance records where the compile pass came from this
	// execution (fresh compile, in-process memo, restored artifact);
	// ProvNone when Scheduling is off. It is execution provenance, not
	// simulation output — excluded from golden fingerprints and from the
	// persisted RunRecord, which must stay byte-identical regardless of
	// cache state.
	CompileProvenance compiler.Provenance

	// Buffer and cache behaviour.
	BufferHits, BufferMisses int64
	PrefetchIssued           int64 // storage-cache stride prefetches
	StorageCacheHits         int64
	StorageCacheMisses       int64

	// Runtime-scheduler agent behaviour.
	AgentMoved    int64 // table entries scheduled earlier than their orig
	AgentIssued   int64 // prefetches actually issued
	AgentBlocked  int64 // stop-fetching occurrences (buffer full)
	AgentDeferred int64 // producer local-time deferrals

	// Disk activity.
	DiskRequests int64
	SpinUps      int64
	RPMShifts    int64

	// Metrics is the run's counter/gauge registry snapshot, sorted by
	// name: disk activity, policy prediction outcomes, cache and buffer
	// ratios, per-state residency, energy, and execution time.
	Metrics []probe.Metric

	// Faults is the per-layer fault-injection and degradation block; nil
	// when the run had no injector attached (Config.Faults == nil).
	Faults *FaultStats
}

// Run executes prog on the configured cluster and returns the
// measurements.
func Run(prog *loop.Program, cfg Config) (*Result, error) {
	return RunContext(context.Background(), prog, cfg)
}

// RunContext executes prog like Run but aborts promptly (returning ctx's
// error) when ctx is cancelled, both during the compiler pass and inside
// the discrete-event loop.
func RunContext(ctx context.Context, prog *loop.Program, cfg Config) (*Result, error) {
	setup, err := NewSetup(prog, cfg.Procs)
	if err != nil {
		return nil, err
	}
	return RunPrepared(ctx, setup, cfg)
}

// RunPrepared executes cfg against a prebuilt Setup, sharing the
// program-derived state (instance index, slot metadata) across runs that
// differ only in runtime knobs. The setup is only read, so one Setup may
// serve any number of concurrent RunPrepared calls. cfg.Procs must match
// the setup's process count. A policy=oracle cfg runs two passes on the
// setup, recordGaps then the replay, and returns the replay's result.
func RunPrepared(ctx context.Context, setup *Setup, cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Procs != setup.procs {
		return nil, fmt.Errorf("cluster: config procs %d does not match setup procs %d", cfg.Procs, setup.procs)
	}
	if cfg.Policy.Kind != power.KindOracle {
		return simulate(ctx, setup, cfg, nil)
	}
	_, gaps, err := recordGaps(ctx, setup, cfg)
	if err != nil {
		return nil, err
	}
	return simulate(ctx, setup, cfg, gaps)
}

// recordGaps runs the first pass of a policy=oracle run: cfg under the
// Default Scheme, tracing every idle gap for the oracle to replay.
func recordGaps(ctx context.Context, setup *Setup, cfg Config) (*Result, *metrics.GapTrace, error) {
	cfg.Policy = power.Config{Kind: power.KindDefault}
	gaps := metrics.NewGapTrace()
	res, err := simulate(ctx, setup, cfg, gaps)
	return res, gaps, err
}

// simulate executes one pass of a validated, normalized cfg on a machine
// from the free list. gaps is nil except in the passes of a
// policy=oracle run: the Default Scheme pass records every idle gap into
// it, and the oracle pass replays them. The machine goes back to the list
// only after a completed run; a failed, cancelled or panicking one drops
// it.
func simulate(ctx context.Context, setup *Setup, cfg Config, gaps *metrics.GapTrace) (*Result, error) {
	prog := setup.prog
	oracle := cfg.Policy.Kind == power.KindOracle

	// The fault injector's per-site streams are seeded from (fault seed,
	// run seed), so equal configs reproduce the exact fault pattern. A nil
	// Faults config leaves injection off entirely.
	inj := fault.NewInjector(cfg.Faults, cfg.Seed)
	m, err := acquireMachine(setup, cfg, inj)
	if err != nil {
		return nil, err
	}
	eng, nodes, ex := m.eng, m.nodes, &m.ex

	// Per-disk power policies and idle recorders.
	idle := metrics.NewIdleHistogram()
	var recorder disk.IdleRecorder = idle
	if gaps != nil && !oracle {
		recorder = teeRecorder{idle, gaps}
	}
	pols := make([]power.Policy, 0, len(nodes)*cfg.Node.Members)
	for _, n := range nodes {
		for _, d := range n.Disks() {
			var pol power.Policy
			var err error
			if oracle {
				pol = power.NewOracle(eng, gaps)
			} else {
				pol, err = power.New(eng, cfg.Policy)
			}
			if err != nil {
				return nil, err
			}
			pol.Attach(d)
			d.SetIdleRecorder(recorder)
			pols = append(pols, pol)
		}
	}

	// The framework: compile and stand up the runtime scheduler.
	var compileProv compiler.Provenance
	if cfg.Scheduling {
		compileSpan := cfg.Probe.StartSpan(probe.TrackRun, "compile "+prog.Name)
		comp, prov, err := Compile(ctx, cfg.CompileCache, prog, cfg.Compiler)
		compileSpan.End()
		compileProv = prov
		if err != nil {
			return nil, err
		}
		ex.comp = comp
		ex.buf = sched.MustNewGlobalBuffer(cfg.BufferBytes)
		ex.buf.SetProbe(cfg.Probe, func() int64 { return int64(eng.Now()) })
		resolve := func(id int) (sched.AccessInfo, bool) {
			inst, ok := comp.InstanceOf(id)
			if !ok {
				return sched.AccessInfo{}, false
			}
			return sched.AccessInfo{
				File:       inst.File,
				Offset:     inst.Offset,
				Length:     inst.Length,
				WriterSlot: comp.WriterSlotOf(id),
			}, true
		}
		for p := 0; p < cfg.Procs; p++ {
			agent, err := sched.NewAgent(p, comp.Schedule.Table(p), resolve, ex, ex.buf, ex)
			if err != nil {
				return nil, err
			}
			ex.agents = append(ex.agents, agent)
		}
	}

	// Launch all processes at t=0 and run to completion.
	for p := 0; p < cfg.Procs; p++ {
		eng.ScheduleFunc(0, "cluster.start", ex.fn[p].start)
	}
	simSpan := cfg.Probe.StartSpan(probe.TrackRun, "simulate "+prog.Name)
	end, err := eng.RunContext(ctx)
	simSpan.End()
	if err != nil {
		return nil, fmt.Errorf("cluster: run aborted at %v: %w", end, err)
	}
	if !ex.allDone() {
		return nil, fmt.Errorf("cluster: run stalled at %v with processes unfinished", end)
	}

	// Close trailing idle gaps and collect results.
	execEnd := ex.maxFinish()
	res := &Result{
		Program:           prog.Name,
		Policy:            cfg.Policy.Kind,
		Scheduling:        cfg.Scheduling,
		ExecTime:          execEnd,
		Idle:              idle,
		Compile:           ex.comp,
		CompileProvenance: compileProv,
		NodeEnergyJ:       make([]float64, len(nodes)),
	}
	for i, n := range nodes {
		n.FlushIdleGaps(execEnd)
		j := n.EnergyJoules(execEnd)
		res.NodeEnergyJ[i] = j
		res.EnergyJ += j
		st := n.Stats()
		res.StorageCacheHits += st.CacheHits
		res.StorageCacheMisses += st.CacheMisses
		res.PrefetchIssued += st.PrefetchIssued
		for _, d := range n.Disks() {
			ds := d.Stats()
			res.DiskRequests += ds.Completed
			res.SpinUps += ds.SpinUps
			res.RPMShifts += ds.RPMShifts
		}
	}
	if ex.buf != nil {
		hits, misses, _, _ := ex.buf.Stats()
		res.BufferHits, res.BufferMisses = hits, misses
	}
	for p, a := range ex.agents {
		issued, blocked, deferred := a.Stats()
		res.AgentIssued += issued
		res.AgentBlocked += blocked
		res.AgentDeferred += deferred
		res.AgentMoved += int64(ex.comp.Schedule.NumMovedEarlier(p))
	}
	if inj != nil {
		res.Faults = collectFaultStats(inj, nodes, m.net, ex)
	}
	res.Metrics = collectMetrics(res, nodes, pols, ex, execEnd)
	m.release()
	return res, nil
}

// collectMetrics snapshots the run's counters and gauges into a sorted,
// name-keyed metric list. All values come from model stats already
// maintained on the hot path — building the registry is a cold end-of-run
// pass, so tracing off or on changes nothing here.
func collectMetrics(res *Result, nodes []*ionode.Node, pols []power.Policy, ex *executor, end sim.Time) []probe.Metric {
	reg := probe.NewRegistry()

	requests := reg.Counter("disk.requests")
	spinUps := reg.Counter("disk.spin_ups")
	spinDowns := reg.Counter("disk.spin_downs")
	rpmShifts := reg.Counter("disk.rpm_shifts")
	idleGaps := reg.Counter("disk.idle_gaps")
	queueHW := reg.Gauge("disk.queue_high_water")
	residency := make(map[disk.State]probe.Counter)
	for _, s := range disk.AllStates() {
		residency[s] = reg.Counter("residency." + s.String() + "_s")
	}
	for _, n := range nodes {
		for _, d := range n.Disks() {
			ds := d.Stats()
			requests.Add(float64(ds.Completed))
			spinUps.Add(float64(ds.SpinUps))
			spinDowns.Add(float64(ds.SpinDowns))
			rpmShifts.Add(float64(ds.RPMShifts))
			idleGaps.Add(float64(ds.IdleGaps))
			queueHW.Observe(float64(ds.QueueHighWater))
			for _, s := range disk.AllStates() {
				residency[s].Add(d.Energy().TimeIn(end, s).Seconds())
			}
		}
	}

	wrong := reg.Counter("power.wrong_predictions")
	preAct := reg.Counter("power.pre_activations")
	for _, pol := range pols {
		if sr, ok := pol.(power.StatsReporter); ok {
			ps := sr.PolicyStats()
			wrong.Add(float64(ps.WrongPredictions))
			preAct.Add(float64(ps.PreActivations))
		}
	}

	reg.Counter("storage_cache.hits").Add(float64(res.StorageCacheHits))
	reg.Counter("storage_cache.misses").Add(float64(res.StorageCacheMisses))
	reg.Counter("storage_cache.prefetches").Add(float64(res.PrefetchIssued))
	if total := res.StorageCacheHits + res.StorageCacheMisses; total > 0 {
		reg.Gauge("storage_cache.hit_ratio").Set(float64(res.StorageCacheHits) / float64(total))
	}
	if ex.buf != nil {
		reg.Counter("buffer.hits").Add(float64(res.BufferHits))
		reg.Counter("buffer.misses").Add(float64(res.BufferMisses))
		if total := res.BufferHits + res.BufferMisses; total > 0 {
			reg.Gauge("buffer.hit_ratio").Set(float64(res.BufferHits) / float64(total))
		}
	}

	reg.Gauge("energy.total_j").Set(res.EnergyJ)
	reg.Gauge("exec.time_s").Set(res.ExecTime.Seconds())
	if res.Faults != nil {
		addFaultMetrics(reg, res.Faults)
	}
	// Flight-recorder health, when a ring-bearing probe was attached: how
	// much history the ring retained vs overwrote. Observability-only
	// entries — the golden Fingerprint deliberately excludes Metrics, so a
	// traced run still fingerprints identically to an untraced one.
	if p := ex.cfg.Probe; p.Capacity() > 0 {
		reg.Gauge("probe.ring_capacity").Set(float64(p.Capacity()))
		reg.Gauge("probe.ring_emitted").Set(float64(p.Emitted()))
		reg.Gauge("probe.ring_dropped").Set(float64(p.Dropped()))
	}
	return reg.Snapshot()
}

// executor drives the processes through their slots. It is part of a
// machine: reset readies it for each run, binding handlers only for
// processes it has never run.
type executor struct {
	eng   *sim.Engine
	cfg   Config
	prog  *loop.Program
	mw    *mpiio.Middleware
	nodes []*ionode.Node
	// flt is the run's fault injector (nil when injection is off); the
	// executor consults it only for its retry bound — it never draws.
	flt *fault.Injector

	slots  int
	procAt []int // current slot per process
	finish []sim.Time
	done   int

	// Flat I/O-instance index shared from the run's Setup: the instances
	// of (proc p, slot s) are ioFlat[ioOff[p*slots+s]:ioOff[p*slots+s+1]],
	// in statement order — one slice header away instead of a map lookup
	// per slot. Read-only: the Setup may be serving concurrent runs.
	ioFlat []loop.IOInstance
	ioOff  []int32

	// Incremental MinSlot: slotCount[s] processes currently sit at slot s
	// (slot == slots means finished); minSlot is the lowest occupied rung.
	// Processes only move forward, so minSlot advances O(slots) total per
	// run instead of an O(Procs) scan per query.
	slotCount []int32
	minSlot   int

	// Per-process continuation state: the slot chain (compute → I/O →
	// I/O → next slot) runs through handlers bound once per machine, with
	// ioIdx[p] the next instance index within the current slot. fn may
	// hold more processes than the run has.
	ioIdx []int32
	fn    []procFns
	// ioRetry counts re-issues of the current instance (reset on advance);
	// the degradation counters below feed Result.Faults.
	ioRetry        []int32
	ioRetries      int64
	ioAbandoned    int64
	fetchFallbacks int64

	// Slot metadata shared from the run's Setup (read-only): nest index,
	// slot-within-nest, per-nest body cost.
	slotNest     []int
	slotLoc      []int
	nestBodyCost []sim.Duration

	// Barrier between nests: arrival-ordered waiting processes and the
	// slot each resumes at.
	barrierNest  int
	barrierCount int
	barrierWait  []int
	pendSlot     []int

	// Framework state.
	comp   *compiler.Result
	buf    *sched.GlobalBuffer
	agents []*sched.Agent
}

// procFns are one process's continuation handlers.
type procFns struct {
	start, compute, next, step, bufHit, release sim.Handler
	wait                                        func(ok bool)
	ioDone                                      func(now sim.Time, ok bool)
}

// reset readies the executor for one run of cfg on setup, reusing its
// per-process state. A nil setup leaves it idle, holding nothing of the
// last run: no setup, program, compile, buffer, agents or injector.
func (ex *executor) reset(m *machine, setup *Setup, cfg Config) {
	procs := cfg.Procs
	clear(ex.agents)
	*ex = executor{
		eng:         m.eng,
		cfg:         cfg,
		mw:          m.mw,
		nodes:       m.nodes,
		flt:         m.eng.Faults(),
		procAt:      zeroed(ex.procAt, procs),
		finish:      zeroed(ex.finish, procs),
		slotCount:   ex.slotCount,
		ioIdx:       zeroed(ex.ioIdx, procs),
		fn:          ex.fn,
		ioRetry:     zeroed(ex.ioRetry, procs),
		barrierWait: ex.barrierWait[:0],
		pendSlot:    zeroed(ex.pendSlot, procs),
		agents:      ex.agents[:0],
	}
	if setup != nil {
		ex.prog = setup.prog
		ex.slots = setup.slots
		ex.ioFlat, ex.ioOff = setup.ioFlat, setup.ioOff
		ex.slotNest, ex.slotLoc, ex.nestBodyCost = setup.slotNest, setup.slotLoc, setup.nestBodyCost
	}
	// Every process starts at slot 0.
	ex.slotCount = zeroed(ex.slotCount, ex.slots+1)
	ex.slotCount[0] = int32(procs)
	for p := len(ex.fn); p < procs; p++ {
		ex.fn = append(ex.fn, ex.bind(p))
	}
}

// zeroed returns s resized to n zero elements, reusing its backing array.
func zeroed[T any](s []T, n int) []T {
	clear(s)
	return append(s[:0], make([]T, n)...)
}

// bind builds process p's continuation handlers.
func (ex *executor) bind(p int) procFns {
	var f procFns
	f.start = func(t sim.Time) {
		ex.beginSlot(p, 0, t)
	}
	f.compute = func(t sim.Time) {
		ex.ioIdx[p] = 0
		ex.stepIO(p, t)
	}
	f.next = func(t sim.Time) {
		ex.ioIdx[p]++
		ex.stepIO(p, t)
	}
	f.step = func(t sim.Time) {
		ex.stepIO(p, t)
	}
	f.bufHit = func(t sim.Time) {
		ex.pumpAgents(t)
		ex.ioIdx[p]++
		ex.stepIO(p, t)
	}
	f.release = func(t sim.Time) {
		ex.runSlot(p, ex.pendSlot[p], t)
	}
	f.wait = func(ok bool) {
		if ok {
			ex.eng.ScheduleFunc(ex.cfg.BufferHitTime, "cluster.buffer-hit", ex.fn[p].bufHit)
			return
		}
		// The prefetch this read was waiting on aborted (injected
		// faults, retries exhausted). The buffer entry is gone, so
		// re-running the same instance degrades to an on-demand
		// middleware read — the cursor never moved, so producer
		// local-time ordering is untouched.
		ex.fetchFallbacks++
		ex.eng.ScheduleFunc(0, "cluster.fetch-abort", ex.fn[p].step)
	}
	f.ioDone = func(t sim.Time, ok bool) {
		if !ok && int(ex.ioRetry[p]) < ex.flt.MaxRetries() {
			// The middleware exhausted its own retries; re-issue the
			// whole instance a bounded number of times before moving
			// on. The cursor is unchanged, so this is a pure re-read.
			ex.ioRetry[p]++
			ex.ioRetries++
			ex.stepIO(p, t)
			return
		}
		if !ok {
			ex.ioAbandoned++
		}
		ex.ioRetry[p] = 0
		ex.ioIdx[p]++
		ex.stepIO(p, t)
	}
	return f
}

// setProcAt moves process p to slot s and maintains the MinSlot ladder.
func (ex *executor) setProcAt(p, s int) {
	old := ex.procAt[p]
	if old == s {
		return
	}
	ex.procAt[p] = s
	ex.slotCount[old]--
	ex.slotCount[s]++
	if s < ex.minSlot {
		ex.minSlot = s
		return
	}
	for ex.minSlot < ex.slots && ex.slotCount[ex.minSlot] == 0 {
		ex.minSlot++
	}
}

// Fetch implements sched.Fetcher on top of the middleware. done's ok is
// the middleware's: false only when a chunk failed after every retry.
func (ex *executor) Fetch(file int, offset, length int64, done func(now sim.Time, ok bool)) error {
	return ex.mw.Read(file, offset, length, done)
}

// MinSlot implements sched.LocalClock. The value is maintained
// incrementally by setProcAt, so the per-event queries the agents make are
// O(1) instead of an O(Procs) scan.
func (ex *executor) MinSlot() int { return ex.minSlot }

// computeCost returns the computation time of one slot for a process.
func (ex *executor) computeCost(proc, slot int) sim.Duration {
	ni := ex.slotNest[slot]
	n := ex.prog.Nests[ni]
	if _, ok := ex.prog.IterOf(ex.cfg.Procs, ni, proc, ex.slotLoc[slot]); !ok {
		return 0
	}
	cost := n.IterCost + ex.nestBodyCost[ni]
	if j := ex.cfg.ComputeJitter; j > 0 && cost > 0 {
		// Deterministic per (seed, proc, slot) multiplier in [1−j, 1+j].
		u := hash01(ex.cfg.Seed, proc, slot)
		cost = sim.Duration(float64(cost) * (1 + j*(2*u-1)))
	}
	return cost
}

// hash01 maps (seed, proc, slot) to a uniform value in [0, 1) using a
// split-mix style integer hash — stable across runs with the same seed.
func hash01(seed int64, proc, slot int) float64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(proc)<<32 ^ uint64(slot)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// pumpAgents lets every scheduler agent retry deferred/blocked fetches.
// Agents with nothing left to issue are skipped — Pump is a pure no-op for
// them, so the skip cannot change behaviour, only save the call.
//
//sddsvet:hotpath
func (ex *executor) pumpAgents(now sim.Time) {
	for _, a := range ex.agents {
		if a.PendingEntries() == 0 {
			continue
		}
		a.Pump(now)
	}
}

// beginSlot starts process p's execution of slot s: nest barrier, agent
// notification, compute, then the slot's I/O in order.
//
//sddsvet:hotpath
func (ex *executor) beginSlot(p, s int, now sim.Time) {
	if s >= ex.slots {
		ex.finish[p] = now
		ex.done++
		ex.setProcAt(p, ex.slots)
		ex.pumpAgents(now)
		return
	}
	// Barrier: entering a new nest waits for all processes.
	ni := ex.slotNest[s]
	if ni > ex.barrierNest && ex.slotLoc[s] == 0 {
		ex.barrierCount++
		ex.pendSlot[p] = s
		ex.barrierWait = append(ex.barrierWait, p)
		if ex.barrierCount == ex.cfg.Procs {
			ex.barrierNest = ni
			ex.barrierCount = 0
			// ScheduleFunc never fires synchronously, so the waiter list
			// can be reused as soon as the releases are queued.
			for _, w := range ex.barrierWait {
				ex.eng.ScheduleFunc(0, "cluster.barrier-release", ex.fn[w].release)
			}
			ex.barrierWait = ex.barrierWait[:0]
		}
		return
	}
	ex.runSlot(p, s, now)
}

//sddsvet:hotpath
func (ex *executor) runSlot(p, s int, now sim.Time) {
	ex.setProcAt(p, s)
	if len(ex.agents) > 0 {
		ex.agents[p].AdvanceTo(s, now)
		ex.pumpAgents(now)
	}
	cost := ex.computeCost(p, s)
	ex.eng.ScheduleFunc(cost, "cluster.compute", ex.fn[p].compute)
}

// stepIO executes I/O instance ioIdx[p] of process p's current slot, then
// advances. The continuation is the pre-bound fn[p].next — no closure per
// I/O — with the (slot, index) cursor carried in executor state: the
// process is blocked on this chain, so nothing else moves it.
//
//sddsvet:hotpath
func (ex *executor) stepIO(p int, now sim.Time) {
	s := ex.procAt[p]
	k := p*ex.slots + s
	insts := ex.ioFlat[ex.ioOff[k]:ex.ioOff[k+1]]
	i := int(ex.ioIdx[p])
	if i >= len(insts) {
		ex.beginSlot(p, s+1, now)
		return
	}
	inst := insts[i]
	switch inst.Kind {
	case loop.StmtWrite:
		if err := ex.mw.Write(inst.File, inst.Offset, inst.Length, ex.fn[p].ioDone); err != nil {
			ex.eng.ScheduleFunc(0, "cluster.io-err", ex.fn[p].next)
		}
	case loop.StmtRead:
		if ex.comp != nil {
			if id, ok := ex.comp.AccessFor(inst); ok {
				// Resident data is a hit; an in-flight prefetch makes the
				// read wait for the delivery instead of duplicating the
				// disk access (or fall back on-demand if it aborts).
				if ex.buf.WaitConsume(id, ex.fn[p].wait) {
					return
				}
			}
		}
		if err := ex.mw.Read(inst.File, inst.Offset, inst.Length, ex.fn[p].ioDone); err != nil {
			ex.eng.ScheduleFunc(0, "cluster.io-err", ex.fn[p].next)
		}
	default:
		ex.eng.ScheduleFunc(0, "cluster.io-skip", ex.fn[p].next)
	}
}

func (ex *executor) allDone() bool { return ex.done == ex.cfg.Procs }

func (ex *executor) maxFinish() sim.Time {
	var max sim.Time
	for _, f := range ex.finish {
		if f > max {
			max = f
		}
	}
	return max
}

// teeRecorder fans idle gaps out to two recorders (the histogram and an
// oracle run's gap trace).
type teeRecorder struct {
	a, b disk.IdleRecorder
}

func (t teeRecorder) RecordIdle(d *disk.Disk, gap sim.Duration) {
	t.a.RecordIdle(d, gap)
	t.b.RecordIdle(d, gap)
}
