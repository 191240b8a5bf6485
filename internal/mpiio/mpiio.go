// Package mpiio is the I/O middleware of the simulated stack (§V-A: MPI-IO
// on top of PVFS): it exposes file-level read/write calls, fans each byte
// range out into stripe-unit chunks across the I/O nodes (Fig. 1), moves
// the bytes over the network model and completes when the last chunk lands.
// Both the application processes and the runtime data access scheduler
// issue their accesses through this layer.
package mpiio

import (
	"fmt"

	"sdds/internal/fault"
	"sdds/internal/ionode"
	"sdds/internal/netsim"
	"sdds/internal/pool"
	"sdds/internal/probe"
	"sdds/internal/sim"
	"sdds/internal/stripe"
)

// FileInfo describes an open file.
type FileInfo struct {
	ID   int
	Name string
	Size int64
}

// Middleware routes file I/O to the I/O nodes.
type Middleware struct {
	eng    *sim.Engine
	layout stripe.Layout
	nodes  []*ionode.Node
	net    *netsim.Network
	files  map[int]FileInfo

	// flt/pr are the engine's fault injector and flight recorder, cached at
	// construction; both nil-safe.
	flt *fault.Injector
	pr  *probe.Probe

	reads, writes int64
	// Fault-degradation counters (all zero without an injector).
	retries      int64 // chunk re-reads/re-writes after a failed node call
	failedReads  int64 // chunks whose reads failed even after MaxRetries
	failedWrites int64 // chunks whose writes failed even after MaxRetries

	// calls and chunks recycle the per-call and per-chunk request state.
	calls  *pool.Pool[call]
	chunks *pool.Pool[chunk]
}

// New wires the middleware. The node slice length must equal the layout's
// NumNodes.
func New(eng *sim.Engine, layout stripe.Layout, nodes []*ionode.Node, net *netsim.Network) (*Middleware, error) {
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	if len(nodes) != layout.NumNodes {
		return nil, fmt.Errorf("mpiio: %d nodes for a %d-node layout", len(nodes), layout.NumNodes)
	}
	m := &Middleware{
		eng:    eng,
		layout: layout,
		nodes:  nodes,
		net:    net,
		files:  make(map[int]FileInfo),
		flt:    eng.Faults(),
		pr:     eng.Probe(),
	}
	m.calls = pool.New(m.newCall)
	m.chunks = pool.New(m.newChunk)
	return m, nil
}

// Open registers a file (MPI_File_open). Re-opening the same id is allowed
// and idempotent.
func (m *Middleware) Open(id int, name string, size int64) (FileInfo, error) {
	if size <= 0 {
		return FileInfo{}, fmt.Errorf("mpiio: file %q size %d must be positive", name, size)
	}
	fi := FileInfo{ID: id, Name: name, Size: size}
	m.files[id] = fi
	return fi, nil
}

// Layout returns the striping layout.
func (m *Middleware) Layout() stripe.Layout { return m.layout }

// Stats returns cumulative read/write call counts.
func (m *Middleware) Stats() (reads, writes int64) { return m.reads, m.writes }

// FaultStats returns the middleware's degradation counters: chunk retries
// and chunks that failed even after every retry.
func (m *Middleware) FaultStats() (retries, failedReads, failedWrites int64) {
	return m.retries, m.failedReads, m.failedWrites
}

// wrap keeps scaled-down file sizes addressable: offsets beyond the file
// wrap around, preserving the node-visit pattern of the original trace.
func (m *Middleware) wrap(file int, offset int64) int64 {
	fi, ok := m.files[file]
	if !ok || fi.Size <= 0 {
		return offset
	}
	if offset < 0 {
		offset = -offset
	}
	return offset % fi.Size
}

// Read fetches [offset, offset+length) of file, invoking done when every
// chunk has been read on its I/O node and transferred back over the
// network (MPI_File_read). ok reports whether every chunk delivered its
// data; a chunk whose node read fails (injected faults, retries exhausted)
// is re-read up to MaxRetries times with exponential backoff before the
// whole call degrades to ok=false.
func (m *Middleware) Read(file int, offset, length int64, done func(now sim.Time, ok bool)) error {
	if length <= 0 {
		return fmt.Errorf("mpiio: read length %d must be positive", length) //sddsvet:ignore hotalloc -- error path: argument validation only
	}
	m.reads++
	return m.start(false, file, offset, length, done)
}

// Write stores [offset, offset+length) of file: data moves to each node
// over the network, then the node writes it (MPI_File_write). ok=false
// only when a chunk's write failed after every bounded retry.
func (m *Middleware) Write(file int, offset, length int64, done func(now sim.Time, ok bool)) error {
	if length <= 0 {
		return fmt.Errorf("mpiio: write length %d must be positive", length) //sddsvet:ignore hotalloc -- error path: argument validation only
	}
	m.writes++
	return m.start(true, file, offset, length, done)
}

// SignatureFor returns the I/O-node signature of a byte range of a file
// (after wrap normalization) — what the compiler attaches to accesses.
func (m *Middleware) SignatureFor(file int, offset, length int64) stripe.Signature {
	return m.layout.SignatureFor(m.wrap(file, offset), length)
}

// call is one Read or Write in flight: done fires with allOK once the last
// of its remaining chunks completes, and the call returns to its pool.
type call struct {
	remaining int
	allOK     bool
	done      func(now sim.Time, ok bool)
}

// chunk is one stripe-unit piece of a call. Its handlers are bound once,
// when the pool allocates it; it keeps its attempt count across retries
// and returns to the pool only when its last completion has fired.
type chunk struct {
	m     *Middleware
	call  *call
	write bool
	file  int
	stripe.Chunk
	attempts int

	onNodeFn      func(now sim.Time, ok bool) // node read/write completion
	onDeliveredFn func(now sim.Time)          // network delivery
}

// newCall grows the call pool.
func (m *Middleware) newCall() *call {
	return &call{} //sddsvet:ignore hotalloc -- pool growth: one per concurrently in-flight call
}

// newChunk grows the chunk pool, binding the chunk's handlers.
func (m *Middleware) newChunk() *chunk {
	ch := &chunk{m: m} //sddsvet:ignore hotalloc -- pool growth: one per concurrently in-flight chunk
	ch.onNodeFn = ch.onNode
	ch.onDeliveredFn = ch.onDelivered
	return ch
}

// start splits the range into stripe-unit chunks, computed in place, and
// dispatches each: a read asks the node first, a write ships the data to
// the node first. done fires when all chunks complete, with ok = every
// chunk succeeded. A dispatch error (a setup bug on a validated config)
// is returned and done never fires.
func (m *Middleware) start(write bool, file int, offset, length int64, done func(now sim.Time, ok bool)) error {
	offset = m.wrap(file, offset)
	first, last := m.layout.Span(offset, length)
	if last < first {
		return fmt.Errorf("mpiio: empty chunk set for off=%d len=%d", offset, length) //sddsvet:ignore hotalloc -- error path: argument validation only
	}
	c := m.calls.Get()
	c.remaining = int(last - first + 1)
	c.allOK = true
	c.done = done
	for u := first; u <= last; u++ {
		ch := m.chunks.Get()
		ch.call, ch.write, ch.file, ch.attempts = c, write, file, 0
		ch.Chunk = m.layout.ChunkOf(offset, length, u)
		var err error
		if ch.Node < 0 || ch.Node >= len(m.nodes) {
			err = fmt.Errorf("mpiio: chunk mapped to invalid node %d", ch.Node) //sddsvet:ignore hotalloc -- error path: a setup bug on a validated layout
		} else if write {
			err = m.net.Transfer(ch.Node, ch.Length, ch.onDeliveredFn)
		} else {
			err = ch.issue()
		}
		if err != nil {
			// Abandon this and the undispatched chunks; chunks already in
			// flight still complete and release the call, silently.
			m.chunks.Put(ch)
			c.done = nil
			c.remaining -= int(last - u + 1)
			if c.remaining == 0 {
				m.calls.Put(c)
			}
			return err
		}
	}
	return nil
}

// issue sends the chunk to its I/O node.
func (ch *chunk) issue() error {
	n := ch.m.nodes[ch.Node]
	if ch.write {
		return n.Write(ch.file, ch.Unit, ch.Offset, ch.Length, ch.onNodeFn)
	}
	return n.Read(ch.file, ch.Unit, ch.Offset, ch.Length, ch.onNodeFn)
}

// onNode completes the node read or write. A failure is retried with
// exponential backoff up to MaxRetries; a successful read ships the chunk
// back to the client.
func (ch *chunk) onNode(now sim.Time, ok bool) {
	m := ch.m
	if !ok && ch.attempts < m.flt.MaxRetries() {
		ch.attempts++
		m.retries++
		m.pr.Emit(probe.KindRetry, int32(ch.Node), int64(now), int64(ch.attempts))
		backoff := sim.Duration(m.flt.RetryLatencyUS()) << (ch.attempts - 1)
		label := "mpiio.read-retry"
		if ch.write {
			label = "mpiio.write-retry"
		}
		m.eng.ScheduleArg(backoff, label, retryCb, ch)
		return
	}
	switch {
	case !ok && ch.write:
		m.failedWrites++
		ch.finish(now, false)
	case !ok:
		m.failedReads++
		ch.finish(now, false)
	case ch.write:
		ch.finish(now, true)
	default:
		if err := m.net.Transfer(ch.Node, ch.Length, ch.onDeliveredFn); err != nil {
			// Transfer setup errors are programming errors; complete the
			// chunk so callers don't hang.
			m.eng.ScheduleArg(0, "mpiio.read-err", failCb, ch)
		}
	}
}

// onDelivered completes the network leg: a read's data reached the
// client, or a write's data reached the node, which now writes it.
func (ch *chunk) onDelivered(now sim.Time) {
	if !ch.write {
		ch.finish(now, true)
		return
	}
	if ch.issue() != nil {
		ch.m.eng.ScheduleArg(0, "mpiio.write-err", failCb, ch)
	}
}

// retryCb re-issues a chunk after its backoff.
func retryCb(at sim.Time, arg any) {
	ch := arg.(*chunk)
	if ch.issue() != nil {
		ch.finish(at, false) // validated config: unreachable
	}
}

// failCb completes a chunk that hit a setup error.
func failCb(at sim.Time, arg any) { arg.(*chunk).finish(at, false) }

// finish releases the chunk and counts it against its call, completing
// the call with the last chunk.
func (ch *chunk) finish(now sim.Time, ok bool) {
	m, c := ch.m, ch.call
	m.chunks.Put(ch)
	if !ok {
		c.allOK = false
	}
	c.remaining--
	if c.remaining > 0 {
		return
	}
	done, allOK := c.done, c.allOK
	m.calls.Put(c)
	if done != nil {
		done(now, allOK)
	}
}
