// Package netsim models the client↔I/O-node interconnect of Fig. 1 at the
// fidelity the evaluation needs: a fixed per-message latency plus serialized
// bandwidth occupancy on each I/O node's link (the server NIC is the shared
// bottleneck in the cluster the paper simulates).
package netsim

import (
	"fmt"

	"sdds/internal/fault"
	"sdds/internal/probe"
	"sdds/internal/sim"
)

// Config describes the interconnect.
type Config struct {
	// LatencyOneWay is the propagation + protocol latency per message.
	LatencyOneWay sim.Duration
	// LinkMBps is the bandwidth of each I/O node's link.
	LinkMBps float64
	// NumNodes is the number of I/O-node links.
	NumNodes int
}

// DefaultConfig returns a gigabit-class cluster interconnect.
func DefaultConfig(numNodes int) Config {
	return Config{
		LatencyOneWay: sim.MilliToTime(0.1),
		LinkMBps:      125, // ~1 Gb/s
		NumNodes:      numNodes,
	}
}

// Validate reports the first configuration problem, or nil.
func (c Config) Validate() error {
	switch {
	case c.LatencyOneWay < 0:
		return fmt.Errorf("netsim: negative latency")
	case c.LinkMBps <= 0:
		return fmt.Errorf("netsim: link bandwidth %.1f must be positive", c.LinkMBps)
	case c.NumNodes <= 0:
		return fmt.Errorf("netsim: node count %d must be positive", c.NumNodes)
	}
	return nil
}

// Network simulates the set of I/O-node links. All methods must run on the
// engine goroutine.
type Network struct {
	eng  *sim.Engine
	cfg  Config
	busy []sim.Time // per-node link free time

	// flt/pr are the engine's fault injector and flight recorder, cached by
	// Reset; both are nil-safe.
	flt *fault.Injector
	pr  *probe.Probe

	transfers int64
	bytes     int64
	drops     int64
	dups      int64
}

// New builds a network.
func New(eng *sim.Engine, cfg Config) (*Network, error) {
	n := &Network{eng: eng}
	if err := n.Reset(cfg); err != nil {
		return nil, err
	}
	return n, nil
}

// Reset returns n, in place, to the state New leaves it in for cfg: every
// link free and the counters zero. It re-reads the engine's probe and
// fault injector.
func (n *Network) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	busy := append(n.busy[:0], make([]sim.Time, cfg.NumNodes)...)
	*n = Network{eng: n.eng, cfg: cfg, busy: busy, flt: n.eng.Faults(), pr: n.eng.Probe()}
	return nil
}

// MustNew is New, panicking on error.
func MustNew(eng *sim.Engine, cfg Config) *Network {
	n, err := New(eng, cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// Transfer schedules the delivery of bytes over node's link and invokes
// done at the delivery time. Transfers on one link serialize; latency
// overlaps occupancy of other messages but each message pays bandwidth
// occupancy once.
//
//sddsvet:hotpath
func (n *Network) Transfer(node int, bytes int64, done func(now sim.Time)) error {
	if node < 0 || node >= n.cfg.NumNodes {
		return fmt.Errorf("netsim: node %d out of range [0,%d)", node, n.cfg.NumNodes) //sddsvet:ignore hotalloc -- error path: argument validation only
	}
	if bytes < 0 {
		return fmt.Errorf("netsim: negative transfer size %d", bytes) //sddsvet:ignore hotalloc -- error path: argument validation only
	}
	now := n.eng.Now()
	start := now
	if n.busy[node] > start {
		start = n.busy[node]
	}
	occupancy := sim.Duration(float64(bytes) / n.cfg.LinkMBps) // bytes/µs = MBps
	n.busy[node] = start + occupancy
	delivery := n.busy[node] + n.cfg.LatencyOneWay
	// Injected drops: each lost copy burned its link occupancy, and the
	// retransmission waits out an exponential backoff before re-occupying
	// the link. Bounded by MaxRetries, then the transfer goes through — the
	// transport is reliable, faults only cost time and bandwidth.
	if n.flt.Enabled() {
		backoff := sim.Duration(n.flt.NetRetryDelayUS())
		for r := 0; r < n.flt.MaxRetries() && n.flt.Hit(fault.SiteNetDrop); r++ {
			n.drops++
			n.pr.Emit(probe.KindFault, int32(fault.SiteNetDrop), int64(n.eng.Now()), int64(node))
			n.busy[node] += backoff + occupancy
			delivery = n.busy[node] + n.cfg.LatencyOneWay
			backoff <<= 1
		}
		// Injected duplicate: a spurious copy serializes on the link after
		// the real delivery is already computed, so it wastes bandwidth for
		// later transfers without delaying this one.
		if n.flt.Hit(fault.SiteNetDup) {
			n.dups++
			n.pr.Emit(probe.KindFault, int32(fault.SiteNetDup), int64(n.eng.Now()), int64(node))
			n.busy[node] += occupancy
		}
	}
	n.transfers++
	n.bytes += bytes
	n.eng.ScheduleFunc(delivery-now, "net.deliver", done)
	return nil
}

// Stats returns cumulative transfer count and bytes.
func (n *Network) Stats() (transfers, bytes int64) { return n.transfers, n.bytes }

// FaultStats returns the injected drop and duplicate counts.
func (n *Network) FaultStats() (drops, dups int64) { return n.drops, n.dups }
