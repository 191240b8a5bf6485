package ionode

import (
	"fmt"
	"sort"

	"sdds/internal/cache"
	"sdds/internal/disk"
	"sdds/internal/fault"
	"sdds/internal/pool"
	"sdds/internal/probe"
	"sdds/internal/sim"
)

// Config describes one I/O node.
type Config struct {
	// DiskParams configures each member disk (Table II defaults).
	DiskParams disk.Params
	// Members is the number of disks in the node.
	Members int
	// Level is the RAID organization across members.
	Level RAIDLevel
	// CacheBytes is the storage-cache capacity (Table II: 64 MB).
	CacheBytes int64
	// UnitBytes is the stripe-unit / cache-block size (64 KB).
	UnitBytes int64
	// PrefetchDepth is how many sequential units the storage cache
	// prefetches after detecting a stride (AccuSim's server cache does I/O
	// prefetching); 0 disables prefetch.
	PrefetchDepth int
	// CacheHitTime is the service time of a storage-cache hit.
	CacheHitTime sim.Duration
	// PowerAwareCache switches the storage cache from plain LRU to the
	// PA-LRU-style policy (cache.PALRU): evictions prefer blocks whose
	// home disk is awake, protecting blocks that would wake a sleeping
	// disk to refetch (the related-work direction of Zhu et al.).
	PowerAwareCache bool
	// CacheLookahead bounds the PA-LRU eviction scan (0 = default).
	CacheLookahead int
	// WriteBack delays writes in the storage cache and flushes them in
	// batches every FlushEpoch (the delayed-write direction of §VI); zero
	// FlushEpoch with WriteBack set uses 10 s. Write-through (the default)
	// sends every write to the member disks immediately.
	WriteBack  bool
	FlushEpoch sim.Duration
}

// DefaultConfig returns the Table II node: a RAID10 mirror pair, 64 MB
// cache, 64 KB units, shallow sequential prefetch. (Table II lists RAID
// levels 5 and 10; RAID5 is exercised by the sensitivity experiments.)
func DefaultConfig() Config {
	return Config{
		DiskParams:    disk.DefaultParams(),
		Members:       2,
		Level:         RAID10,
		CacheBytes:    64 << 20,
		UnitBytes:     64 << 10,
		PrefetchDepth: 2,
		CacheHitTime:  sim.MilliToTime(0.05),
	}
}

// Validate reports the first configuration problem, or nil.
func (c Config) Validate() error {
	if err := c.DiskParams.Validate(); err != nil {
		return err
	}
	switch {
	case c.Members <= 0:
		return fmt.Errorf("ionode: members %d must be positive", c.Members)
	case c.CacheBytes <= 0:
		return fmt.Errorf("ionode: cache %d bytes must be positive", c.CacheBytes)
	case c.UnitBytes <= 0:
		return fmt.Errorf("ionode: unit %d bytes must be positive", c.UnitBytes)
	case c.PrefetchDepth < 0:
		return fmt.Errorf("ionode: prefetch depth %d must be ≥ 0", c.PrefetchDepth)
	case c.CacheHitTime < 0:
		return fmt.Errorf("ionode: negative cache hit time")
	case c.FlushEpoch < 0:
		return fmt.Errorf("ionode: negative flush epoch")
	}
	// Dry-run the mapper to surface level/member mismatches.
	if _, _, err := raidMap(c.Level, c.Members, 0, 0, 1, false, int64(c.DiskParams.SectorSize), c.UnitBytes); err != nil {
		return err
	}
	return nil
}

// Stats aggregates node-level counters.
type Stats struct {
	Reads          int64
	Writes         int64
	CacheHits      int64
	CacheMisses    int64
	PrefetchIssued int64
	BytesRead      int64
	BytesWritten   int64
	Flushes        int64
	// Fault-injection counters (all zero without an injector).
	Retries          int64 // member-disk resubmissions after transient errors
	RetriesExhausted int64 // requests that failed even after MaxRetries
	Stalls           int64 // injected node stalls
	FailedUnits      int64 // unit fetches abandoned after exhausted retries
}

// Node is one I/O node: member disks behind a storage cache.
type Node struct {
	ID    int
	eng   *sim.Engine
	cfg   Config
	disks []*disk.Disk
	cache cache.Store

	// Stride prefetcher state (per file).
	lastUnit  map[int]int64
	lastDelta map[int]int64
	inflight  map[cache.Key]*unitFetch // miss coalescing

	// Write-back state: dirty units awaiting the epoch flush.
	dirty      map[cache.Key]int64 // key → bytes pending
	flushTimer bool

	// pr is the engine's flight recorder, cached at construction.
	pr *probe.Probe
	// flt is the engine's fault injector, cached like the probe; nil-safe.
	flt *fault.Injector

	// okCb completes a fault-free request: arg is the caller's
	// done func(sim.Time, bool). Bound once so the cache-hit and
	// write-back-ack paths schedule without a per-call closure.
	okCb sim.ArgHandler
	// flushFn is the write-back epoch timer's handler, bound once.
	flushFn sim.Handler

	// Pools recycling the request path's state: member-disk batches, unit
	// fetches and stalled requests (see batch, unitFetch and stalled).
	batches *pool.Pool[batch]
	fetches *pool.Pool[unitFetch]
	stalls  *pool.Pool[stalled]

	stats Stats
}

// New builds an I/O node with freshly spun-up member disks.
func New(eng *sim.Engine, id int, cfg Config) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.WriteBack && cfg.FlushEpoch == 0 {
		cfg.FlushEpoch = 10 * sim.Second
	}
	n := &Node{
		ID:        id,
		eng:       eng,
		cfg:       cfg,
		lastUnit:  make(map[int]int64),
		lastDelta: make(map[int]int64),
		inflight:  make(map[cache.Key]*unitFetch),
		dirty:     make(map[cache.Key]int64),
		pr:        eng.Probe(),
		flt:       eng.Faults(),
	}
	n.okCb = n.onOK
	n.flushFn = n.onFlushTimer
	n.batches = pool.New(n.newBatch)
	n.fetches = pool.New(n.newFetch)
	n.stalls = pool.New(n.newStalled)
	for i := 0; i < cfg.Members; i++ {
		d, err := disk.New(eng, id*100+i, cfg.DiskParams)
		if err != nil {
			return nil, err
		}
		n.disks = append(n.disks, d)
	}
	if cfg.PowerAwareCache {
		pal, err := cache.NewPALRU(cfg.CacheBytes, n.diskAwake, cfg.CacheLookahead)
		if err != nil {
			return nil, err
		}
		n.cache = pal
	} else {
		n.cache = cache.MustNew(cfg.CacheBytes)
	}
	return n, nil
}

// MustNew is New, panicking on error.
func MustNew(eng *sim.Engine, id int, cfg Config) *Node {
	n, err := New(eng, id, cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// diskAwake reports whether the data disk holding a cached block is
// spinning (the PA-LRU activity callback): blocks of sleeping disks are
// protected from eviction.
func (n *Node) diskAwake(k cache.Key) bool {
	ios, cnt, err := raidMap(n.cfg.Level, n.cfg.Members, k.Block, 0, 1, false,
		int64(n.cfg.DiskParams.SectorSize), n.cfg.UnitBytes)
	if err != nil || cnt == 0 {
		return true
	}
	d := ios[0].disk
	if d < 0 || d >= len(n.disks) {
		return true
	}
	return n.disks[d].State().Spinning()
}

// Disks exposes the member disks (for attaching power policies and
// recorders). Callers must not mutate the slice.
func (n *Node) Disks() []*disk.Disk { return n.disks }

// Config returns the node configuration.
func (n *Node) Config() Config { return n.cfg }

// Stats returns a copy of the counters.
func (n *Node) Stats() Stats { return n.stats }

// CacheStats returns the storage cache's hit/miss/eviction counters.
func (n *Node) CacheStats() (hits, misses, evictions int64) { return n.cache.Stats() }

// EnergyJoules sums member-disk energy up to now.
func (n *Node) EnergyJoules(now sim.Time) float64 {
	var j float64
	for _, d := range n.disks {
		j += d.Energy().TotalJoules(now)
	}
	return j
}

// FlushIdleGaps closes trailing idle gaps on all members at end of run.
func (n *Node) FlushIdleGaps(now sim.Time) {
	for _, d := range n.disks {
		d.FlushIdleGap(now)
	}
}

// onOK completes a request that carried no fault: arg is the caller's
// done callback. Bound once (okCb) so success paths schedule without
// allocating a closure.
func (n *Node) onOK(now sim.Time, arg any) { arg.(func(sim.Time, bool))(now, true) }

// Read serves a read of [offset, offset+length) within global stripe unit
// `unit` of file `file`, invoking done at completion with ok reporting
// whether the data was delivered (ok=false only under fault injection,
// after every bounded retry was exhausted). Storage-cache hits complete in
// CacheHitTime; misses read the whole unit from the member disks (filling
// the cache) and trigger stride prefetch.
func (n *Node) Read(file int, unit, offset, length int64, done func(now sim.Time, ok bool)) error {
	if length <= 0 || offset < 0 || offset+length > n.cfg.UnitBytes {
		return fmt.Errorf("ionode %d: bad read range unit=%d off=%d len=%d", n.ID, unit, offset, length) //sddsvet:ignore hotalloc -- error path: argument validation only
	}
	// Injected node stall: the node accepts the request only after the
	// stall elapses, then serves it normally.
	if n.stall(false, file, unit, offset, length, done) {
		return nil
	}
	return n.readNow(file, unit, offset, length, done)
}

// readNow is Read past the stall gate.
func (n *Node) readNow(file int, unit, offset, length int64, done func(now sim.Time, ok bool)) error {
	n.stats.Reads++
	n.stats.BytesRead += length
	key := cache.Key{File: file, Block: unit}
	if _, ok := n.cache.Get(key); ok {
		n.stats.CacheHits++
		n.pr.Emit(probe.KindCacheHit, int32(n.ID), int64(n.eng.Now()), unit)
		n.eng.ScheduleArg(n.cfg.CacheHitTime, "ionode.hit", n.okCb, done)
		n.prefetch(file, unit)
		return nil
	}
	n.stats.CacheMisses++
	n.pr.Emit(probe.KindCacheMiss, int32(n.ID), int64(n.eng.Now()), unit)
	if f, ok := n.inflight[key]; ok {
		// Coalesce with an in-flight fetch of the same unit.
		f.waiters = append(f.waiters, done)
		return nil
	}
	if err := n.fetch(file, unit, key, done); err != nil {
		return err
	}
	n.prefetch(file, unit)
	return nil
}

// Write stores [offset, offset+length) of unit `unit` (write-through: data
// and parity/mirror go to the member disks; the unit is installed in the
// cache). ok=false only under fault injection with retries exhausted.
func (n *Node) Write(file int, unit, offset, length int64, done func(now sim.Time, ok bool)) error {
	if length <= 0 || offset < 0 || offset+length > n.cfg.UnitBytes {
		return fmt.Errorf("ionode %d: bad write range unit=%d off=%d len=%d", n.ID, unit, offset, length) //sddsvet:ignore hotalloc -- error path: argument validation only
	}
	if n.stall(true, file, unit, offset, length, done) {
		return nil
	}
	return n.writeNow(file, unit, offset, length, done)
}

// writeNow is Write past the stall gate.
func (n *Node) writeNow(file int, unit, offset, length int64, done func(now sim.Time, ok bool)) error {
	n.stats.Writes++
	n.stats.BytesWritten += length
	key := cache.Key{File: file, Block: unit}
	n.cache.Put(key, n.cfg.UnitBytes)
	if n.cfg.WriteBack {
		// Absorb the write; it reaches the member disks at the epoch
		// flush. The caller completes after the cache insertion.
		if prev := n.dirty[key]; length > prev {
			n.dirty[key] = length
		}
		n.armFlush()
		n.eng.ScheduleArg(n.cfg.CacheHitTime, "ionode.wb-ack", n.okCb, done)
		return nil
	}
	ios, cnt, err := raidMap(n.cfg.Level, n.cfg.Members, unit, offset, length, true,
		int64(n.cfg.DiskParams.SectorSize), n.cfg.UnitBytes)
	if err != nil {
		return err
	}
	return n.issue(ios, cnt, done)
}

// armFlush schedules the next epoch flush if one is not pending.
func (n *Node) armFlush() {
	if n.flushTimer {
		return
	}
	n.flushTimer = true
	n.eng.ScheduleFunc(n.cfg.FlushEpoch, "ionode.flush", n.flushFn)
}

// onFlushTimer runs the epoch flush and re-arms the timer while dirty
// units remain.
func (n *Node) onFlushTimer(now sim.Time) {
	n.flushTimer = false
	n.Flush(now)
	if len(n.dirty) > 0 {
		n.armFlush()
	}
}

// Flush writes all dirty units to the member disks (write-back mode). It is
// also called at end of run so no dirty data is silently dropped.
func (n *Node) Flush(now sim.Time) {
	if len(n.dirty) == 0 {
		return
	}
	batch := n.dirty
	n.dirty = make(map[cache.Key]int64)
	// Issue in sorted key order: the member disks' queueing — and therefore
	// seek distances, idle gaps, and energy — depends on arrival order, so
	// iterating the map directly would leak Go's randomized iteration order
	// into the golden-compared results.
	keys := make([]cache.Key, 0, len(batch))
	for key := range batch {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].File != keys[j].File {
			return keys[i].File < keys[j].File
		}
		return keys[i].Block < keys[j].Block
	})
	for _, key := range keys {
		ios, cnt, err := raidMap(n.cfg.Level, n.cfg.Members, key.Block, 0, batch[key], true,
			int64(n.cfg.DiskParams.SectorSize), n.cfg.UnitBytes)
		if err != nil {
			continue
		}
		n.stats.Flushes++
		if err := n.issue(ios, cnt, func(sim.Time, bool) {}); err != nil {
			continue
		}
	}
}

// DirtyUnits reports how many units await the next flush.
func (n *Node) DirtyUnits() int { return len(n.dirty) }

// fetchUnit reads an entire stripe unit from the member disks.
func (n *Node) fetchUnit(file int, unit int64, done func(now sim.Time, ok bool)) error {
	ios, cnt, err := raidMap(n.cfg.Level, n.cfg.Members, unit, 0, n.cfg.UnitBytes, false,
		int64(n.cfg.DiskParams.SectorSize), n.cfg.UnitBytes)
	if err != nil {
		return err
	}
	return n.issue(ios, cnt, done)
}

// unitFetch is one whole-unit read in flight, keyed in inflight: later
// misses on the unit wait on it rather than re-reading, and a prefetch
// starts it with no waiters. doneFn is bound once, when the pool allocates
// the fetch, and the waiter slice keeps its capacity across reuse.
type unitFetch struct {
	n       *Node
	key     cache.Key
	waiters []func(now sim.Time, ok bool)
	doneFn  func(now sim.Time, ok bool)
}

// newFetch grows the unit-fetch pool.
func (n *Node) newFetch() *unitFetch {
	f := &unitFetch{n: n} //sddsvet:ignore hotalloc -- pool growth: one per concurrently fetched unit
	f.doneFn = f.done
	return f
}

// fetch starts reading unit `unit` (cache key key) into the cache, with
// waiter, if non-nil, as its first waiter.
func (n *Node) fetch(file int, unit int64, key cache.Key, waiter func(now sim.Time, ok bool)) error {
	f := n.fetches.Get()
	f.key = key
	if waiter != nil {
		f.waiters = append(f.waiters, waiter)
	}
	n.inflight[key] = f
	if err := n.fetchUnit(file, unit, f.doneFn); err != nil {
		delete(n.inflight, key)
		f.release()
		return err
	}
	return nil
}

// done installs the fetched unit and completes its waiters. After
// exhausted retries the unit never arrived: it is not cached, and the
// waiters degrade (the middleware re-reads or fails the chunk).
func (f *unitFetch) done(now sim.Time, ok bool) {
	n := f.n
	delete(n.inflight, f.key)
	if ok {
		n.cache.Put(f.key, n.cfg.UnitBytes)
	} else {
		n.stats.FailedUnits++
	}
	for _, w := range f.waiters {
		w(now, ok)
	}
	f.release()
}

// release drops the waiters and returns the fetch to its pool.
func (f *unitFetch) release() {
	clear(f.waiters)
	f.waiters = f.waiters[:0]
	f.n.fetches.Put(f)
}

// batch is one logical unit operation fanned out to at most two member
// disks; done fires when the last member request completes. The members'
// Done handlers are bound once, when the pool allocates the batch, and
// each member keeps its attempt count across resubmissions, so the batch
// returns to its pool only after its final member completion — never
// while a disk queue or a retry event still holds one of its requests.
type batch struct {
	n         *Node
	remaining int
	allOK     bool
	done      func(now sim.Time, ok bool)
	mem       [2]member
}

// member is one member-disk request of a batch.
type member struct {
	b        *batch
	disk     *disk.Disk
	attempts int
	req      disk.Request
}

// newBatch grows the batch pool.
func (n *Node) newBatch() *batch {
	b := &batch{n: n} //sddsvet:ignore hotalloc -- pool growth: one per concurrently in-flight unit operation
	for i := range b.mem {
		m := &b.mem[i]
		m.b = b
		m.req.Done = m.onDone
	}
	return b
}

// issue submits the member-disk operations ios[:cnt] and calls done when
// the last completes. A member request surfacing an injected transient
// error is resubmitted after an exponential backoff (RetryLatency <<
// attempt), bounded by the injector's MaxRetries; a request that fails
// every retry marks the whole batch failed (ok=false) — degradation, never
// a hang. A submission error is returned and done never fires.
func (n *Node) issue(ios [2]diskIO, cnt int, done func(now sim.Time, ok bool)) error {
	if cnt == 0 {
		n.eng.ScheduleArg(0, "ionode.noop", n.okCb, done)
		return nil
	}
	b := n.batches.Get()
	b.remaining, b.allOK, b.done = cnt, true, done
	for i := 0; i < cnt; i++ {
		if err := n.submit(&b.mem[i], ios[i]); err != nil {
			// Members already submitted still complete and release the
			// batch, silently.
			b.done = nil
			b.remaining -= cnt - i
			if b.remaining == 0 {
				n.batches.Put(b)
			}
			return err
		}
	}
	return nil
}

// submit points member m at io and submits its request.
func (n *Node) submit(m *member, io diskIO) error {
	if io.disk < 0 || io.disk >= len(n.disks) {
		return fmt.Errorf("ionode %d: mapped to invalid member %d", n.ID, io.disk) //sddsvet:ignore hotalloc -- error path: a setup bug on a validated config
	}
	m.req.Op = disk.OpRead
	if io.write {
		m.req.Op = disk.OpWrite
	}
	m.req.Sector = io.sector
	if max := n.cfg.DiskParams.TotalSectors(); m.req.Sector >= max {
		m.req.Sector %= max // wrap for scaled-down capacities
	}
	m.req.Bytes = io.bytes
	m.disk = n.disks[io.disk]
	m.attempts = 0
	return m.disk.Submit(&m.req)
}

// onDone completes one member request, resubmitting it after a backoff on
// a transient error while retries remain.
func (m *member) onDone(now sim.Time, r *disk.Request) {
	b := m.b
	n := b.n
	if r.Err != nil && m.attempts < n.flt.MaxRetries() {
		m.attempts++
		n.stats.Retries++
		n.pr.Emit(probe.KindRetry, int32(n.ID), int64(now), int64(m.attempts))
		backoff := sim.Duration(n.flt.RetryLatencyUS()) << (m.attempts - 1)
		n.eng.ScheduleArg(backoff, "ionode.retry", resubmitCb, m)
		return
	}
	if r.Err != nil {
		n.stats.RetriesExhausted++
		b.allOK = false
	}
	b.remaining--
	if b.remaining > 0 {
		return
	}
	done, ok := b.done, b.allOK
	n.batches.Put(b)
	if done != nil {
		done(now, ok)
	}
}

// resubmitCb resubmits a member request after its retry backoff.
func resubmitCb(at sim.Time, arg any) {
	m := arg.(*member)
	if m.disk.Submit(&m.req) != nil {
		// Unreachable on a validated config; degrade rather than retry
		// forever.
		m.attempts = m.b.n.flt.MaxRetries()
		m.onDone(at, &m.req)
	}
}

// stalled is a request an injected node stall holds at the door; the node
// accepts it when the stall elapses.
type stalled struct {
	n                    *Node
	write                bool
	file                 int
	unit, offset, length int64
	done                 func(now sim.Time, ok bool)
}

// newStalled grows the stalled-request pool.
func (n *Node) newStalled() *stalled {
	return &stalled{n: n} //sddsvet:ignore hotalloc -- pool growth: one per concurrently stalled request
}

// stall draws the node-stall fault for a request; on a hit it defers the
// request until the stall elapses, then serves it normally.
func (n *Node) stall(write bool, file int, unit, offset, length int64, done func(now sim.Time, ok bool)) bool {
	if !n.flt.Hit(fault.SiteNodeStall) {
		return false
	}
	n.stats.Stalls++
	n.pr.Emit(probe.KindFault, int32(fault.SiteNodeStall), int64(n.eng.Now()), int64(n.ID))
	s := n.stalls.Get()
	s.write, s.file, s.unit, s.offset, s.length, s.done = write, file, unit, offset, length, done
	n.eng.ScheduleArg(sim.Duration(n.flt.NodeStallUS()), "ionode.stall", admitCb, s)
	return true
}

// admitCb serves a stalled request once its stall has elapsed.
func admitCb(now sim.Time, arg any) {
	s := arg.(*stalled)
	n, write, file, unit, offset, length, done := s.n, s.write, s.file, s.unit, s.offset, s.length, s.done
	s.done = nil
	n.stalls.Put(s)
	var err error
	if write {
		err = n.writeNow(file, unit, offset, length, done)
	} else {
		err = n.readNow(file, unit, offset, length, done)
	}
	if err != nil {
		done(now, false) // validated config: unreachable raidMap error
	}
}

// prefetch runs the per-file stride detector and fetches ahead on a match.
func (n *Node) prefetch(file int, unit int64) {
	if n.cfg.PrefetchDepth == 0 {
		n.lastUnit[file] = unit
		return
	}
	prev, seen := n.lastUnit[file]
	if seen {
		delta := unit - prev
		if delta != 0 && delta == n.lastDelta[file] {
			for k := 1; k <= n.cfg.PrefetchDepth; k++ {
				next := unit + delta*int64(k)
				if next < 0 {
					break
				}
				key := cache.Key{File: file, Block: next}
				if n.cache.Contains(key) {
					continue
				}
				if _, busy := n.inflight[key]; busy {
					continue
				}
				n.stats.PrefetchIssued++
				n.pr.Emit(probe.KindPrefetch, int32(n.ID), int64(n.eng.Now()), next)
				if n.fetch(file, next, key, nil) != nil {
					break
				}
			}
		}
		n.lastDelta[file] = delta
	}
	n.lastUnit[file] = unit
}
