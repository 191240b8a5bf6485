// Package probe is the simulator's flight recorder: an optional,
// nil-checked tracing layer that device models thread through the event
// core. When enabled it records fixed-size binary records — (kind, time,
// id, arg) — into a preallocated ring buffer with zero allocations per
// event; when disabled (a nil *Probe) every emit site costs a single
// predictable branch. On top of the ring sit a Chrome trace-event exporter
// (chrome.go), a per-run counter/gauge registry (registry.go), and a
// coarse wall-clock span API for phase-level timing (plan, compile,
// simulate).
//
// Concurrency contract: Emit is called from the single engine goroutine
// only and is deliberately unsynchronized — exactly the contract the rest
// of the event core already lives by. The span API is mutex-guarded and
// safe for concurrent use (the harness records spans from its worker
// pool); a span-only probe (NewSpanProbe) has no ring, so it can be shared
// across concurrent cluster runs without racing on record storage.
package probe

import (
	"sync"
	"sync/atomic"
	"time"
)

// Kind tags one ring record. Values are stable within a run; the exporter
// maps them to track/event names.
type Kind uint16

// Record kinds. The emitting model decides id and arg:
//
//	kind          id        arg
//	DiskState     disk ID   the new disk state (disk.State as int64)
//	IOIssue       disk ID   request bytes
//	IOComplete    disk ID   request bytes
//	SpinUp        disk ID   1 when reversing an aborted spin-down, else 0
//	SpinDown      disk ID   0
//	RPMShift      disk ID   target RPM
//	CacheHit      node ID   stripe unit
//	CacheMiss     node ID   stripe unit
//	Prefetch      node ID   stripe unit fetched ahead
//	BufferHit     access ID 0
//	BufferMiss    access ID 0
//	PreActivation disk ID   0 (ahead-of-time wake/ramp timer fired)
//	WrongPredict  disk ID   0 (request found the disk mid-transition/slow)
//	Fault         fault site (fault.Site as int32)   emitting entity ID (disk/node)
//	Retry         node ID   retry attempt number (1-based)
const (
	KindInvalid Kind = iota
	KindDiskState
	KindIOIssue
	KindIOComplete
	KindSpinUp
	KindSpinDown
	KindRPMShift
	KindCacheHit
	KindCacheMiss
	KindPrefetch
	KindBufferHit
	KindBufferMiss
	KindPreActivation
	KindWrongPredict
	KindFault
	KindRetry
)

var kindNames = [...]string{
	KindInvalid:       "invalid",
	KindDiskState:     "state",
	KindIOIssue:       "io issue",
	KindIOComplete:    "io complete",
	KindSpinUp:        "spin-up",
	KindSpinDown:      "spin-down",
	KindRPMShift:      "rpm shift",
	KindCacheHit:      "cache hit",
	KindCacheMiss:     "cache miss",
	KindPrefetch:      "prefetch",
	KindBufferHit:     "buffer hit",
	KindBufferMiss:    "buffer miss",
	KindPreActivation: "pre-activation",
	KindWrongPredict:  "wrong prediction",
	KindFault:         "fault",
	KindRetry:         "retry",
}

// String returns the exporter's event name for the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "invalid"
}

// Record is one fixed-size ring entry: 24 bytes, no pointers, so the whole
// ring is a single flat allocation the GC never scans per-element.
type Record struct {
	// T is the record timestamp in microseconds. Ring records carry the
	// engine's virtual clock; span records (kept separately) carry wall
	// time — the exporter puts them on different tracks.
	T int64
	// Arg is kind-specific payload (state, bytes, RPM, unit).
	Arg int64
	// Kind tags the record.
	Kind Kind
	// ID is the emitting entity: disk ID, node ID, or access ID.
	ID int32
}

// spanRec is one coarse wall-clock phase span.
type spanRec struct {
	track      int32
	name       string
	start, end int64 // µs since the probe's wall epoch; end < 0 while open
}

// Probe is the recorder. The zero value is not usable; construct with
// NewProbe (ring + spans) or NewSpanProbe (spans only, shareable across
// goroutines). A nil *Probe is the disabled state: every method is a
// nil-safe no-op.
type Probe struct {
	ring []Record
	mask uint64
	next uint64 // total records emitted; ring index = next & mask

	epoch time.Time // wall-clock zero for span timestamps

	mu    sync.Mutex
	spans []spanRec
	// contention counts span-lock acquisitions that found the mutex held
	// by another goroutine — the signal that concurrent workers are
	// serializing on span recording.
	contention atomic.Int64
}

// NewProbe returns a probe whose ring holds at least capacity records
// (rounded up to a power of two, minimum 1024). When the ring fills, the
// oldest records are overwritten — flight-recorder semantics: the tail of
// a long run is always retained, and Dropped reports how much history was
// lost.
func NewProbe(capacity int) *Probe {
	n := 1024
	for n < capacity {
		n <<= 1
	}
	return &Probe{ring: make([]Record, n), mask: uint64(n - 1), epoch: time.Now()} //sddsvet:ignore detflow -- host-side telemetry: the span epoch never feeds golden output
}

// NewSpanProbe returns a probe with no ring: Emit is a no-op, but spans
// are recorded. Because span recording is mutex-guarded, a span probe can
// be handed to concurrent cluster runs (the harness session does exactly
// this) without violating the ring's single-goroutine contract.
func NewSpanProbe() *Probe {
	return &Probe{epoch: time.Now()} //sddsvet:ignore detflow -- host-side telemetry: the span epoch never feeds golden output
}

// Emit appends one record to the ring, overwriting the oldest once full.
// It is nil-safe: on a disabled (nil) probe the call is a single
// predictable branch, which is what lets every model emit unconditionally
// from its hot path. Must be called from the engine goroutine only.
//
//sddsvet:hotpath
func (p *Probe) Emit(k Kind, id int32, t int64, arg int64) {
	if p == nil || p.ring == nil {
		return
	}
	p.ring[p.next&p.mask] = Record{T: t, Arg: arg, Kind: k, ID: id}
	p.next++
}

// Len reports how many records are currently retained (≤ ring capacity).
func (p *Probe) Len() int {
	if p == nil || p.ring == nil {
		return 0
	}
	if p.next > uint64(len(p.ring)) {
		return len(p.ring)
	}
	return int(p.next)
}

// Emitted reports the total number of records ever emitted.
func (p *Probe) Emitted() uint64 {
	if p == nil {
		return 0
	}
	return p.next
}

// Dropped reports how many records were overwritten by ring wrap-around.
func (p *Probe) Dropped() uint64 {
	if p == nil || p.ring == nil || p.next <= uint64(len(p.ring)) {
		return 0
	}
	return p.next - uint64(len(p.ring))
}

// Capacity reports the ring size in records (0 for a span-only probe).
func (p *Probe) Capacity() int {
	if p == nil {
		return 0
	}
	return len(p.ring)
}

// Records returns the retained records oldest-first. The slice is freshly
// allocated (export/analysis path, not the hot path).
func (p *Probe) Records() []Record {
	if p == nil || p.ring == nil {
		return nil
	}
	if p.next <= uint64(len(p.ring)) {
		out := make([]Record, p.next)
		copy(out, p.ring[:p.next])
		return out
	}
	// Wrapped: oldest record sits at next&mask.
	out := make([]Record, 0, len(p.ring))
	start := p.next & p.mask
	out = append(out, p.ring[start:]...)
	out = append(out, p.ring[:start]...)
	return out
}

// Span is a handle to an open phase span; End closes it. The zero Span
// (from a nil probe) is inert.
type Span struct {
	p   *Probe
	idx int
}

// StartSpan opens a wall-clock span named name on the given track. Tracks
// group spans into rows in the exported trace: the harness uses track 0
// for plan derivation and track 1+i for worker i; the cluster runner uses
// TrackRun for its compile/simulate phases. Safe for concurrent use.
func (p *Probe) StartSpan(track int32, name string) Span {
	if p == nil {
		return Span{}
	}
	now := time.Since(p.epoch).Microseconds() //sddsvet:ignore detflow -- host-side telemetry: span timestamps never feed golden output
	p.lockSpans()
	defer p.mu.Unlock()
	p.spans = append(p.spans, spanRec{track: track, name: name, start: now, end: -1})
	return Span{p: p, idx: len(p.spans) - 1}
}

// End closes the span at the current wall time. Ending an already-ended or
// zero span is a no-op.
func (s Span) End() {
	if s.p == nil {
		return
	}
	now := time.Since(s.p.epoch).Microseconds() //sddsvet:ignore detflow -- host-side telemetry: span timestamps never feed golden output
	s.p.lockSpans()
	defer s.p.mu.Unlock()
	if s.p.spans[s.idx].end < 0 {
		s.p.spans[s.idx].end = now
	}
}

// TrackRun is the span track the cluster runner records its compile and
// simulate phases on. Harness workers use tracks ≥ TrackWorkerBase so the
// two never collide in the exported trace.
const (
	TrackPlan       int32 = 0
	TrackRun        int32 = 1
	TrackWorkerBase int32 = 2
)

// lockSpans takes the span mutex, counting acquisitions that had to wait.
// TryLock failing means another goroutine held the lock at that instant —
// an approximation of contention that costs nothing when uncontended.
func (p *Probe) lockSpans() {
	if p.mu.TryLock() {
		return
	}
	p.contention.Add(1)
	p.mu.Lock()
}

// SpanContention reports how many span-lock acquisitions found the mutex
// already held. A high value relative to SpanCount means concurrent
// workers are serializing on span recording.
func (p *Probe) SpanContention() int64 {
	if p == nil {
		return 0
	}
	return p.contention.Load()
}

// SpanCount reports how many spans have been recorded.
func (p *Probe) SpanCount() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.spans)
}
