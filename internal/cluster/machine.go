package cluster

import (
	"runtime"
	"sync"

	"sdds/internal/fault"
	"sdds/internal/ionode"
	"sdds/internal/mpiio"
	"sdds/internal/netsim"
	"sdds/internal/sim"
)

// machine is the simulated cluster one run executes on: the engine, the
// I/O nodes with their disks, storage caches and request pools, the
// network, the middleware and the executor with its bound handlers. A
// finished run hands its machine to a free list, and the next run resets
// it in place for its own config, so runs neither rebuild the Table II
// cluster nor regrow its pools and cache slabs. What a run owns (power
// policies, fault injector, idle histogram, gap trace, global buffer,
// scheduler agents, Result) is built per run.
type machine struct {
	eng   *sim.Engine
	nodes []*ionode.Node
	net   *netsim.Network
	mw    *mpiio.Middleware
	ex    executor
}

// machines is the free list of idle machines, shared by every run in the
// process. It holds at most GOMAXPROCS of them.
var machines struct {
	sync.Mutex
	idle []*machine
}

// maxIdleCacheSlots bounds the storage-cache slab an idle machine may keep
// per node: Table II's 64 MB of 64 KB blocks, plus the block admitted
// before eviction makes room. A storage cache holds only whole units, so
// a run sizes its slab for CacheBytes/UnitBytes + 1 blocks; a machine
// whose run's config asks for more is dropped, not held for the life of
// the process, and so no machine on the free list keeps a larger slab.
const maxIdleCacheSlots = 64<<20/(64<<10) + 1

// acquireMachine returns a machine reset for one run of cfg on setup, with
// the run's probe and fault injector attached: an idle one from the free
// list, or a new one when the list is empty.
func acquireMachine(setup *Setup, cfg Config, inj *fault.Injector) (*machine, error) {
	machines.Lock()
	var m *machine
	if n := len(machines.idle); n > 0 {
		m = machines.idle[n-1]
		machines.idle[n-1] = nil
		machines.idle = machines.idle[:n-1]
	}
	machines.Unlock()
	if m == nil {
		m = &machine{eng: sim.NewEngine(cfg.Seed)}
	}
	if err := m.reset(setup, cfg, inj); err != nil {
		return nil, err
	}
	return m, nil
}

// reset readies m for one run of cfg on setup: the engine re-seeded with
// the probe and injector attached, every model back at time zero, adding
// or dropping I/O nodes, members and processes to match cfg. A nil setup,
// probe and injector leave m idle: it then holds nothing of any run.
func (m *machine) reset(setup *Setup, cfg Config, inj *fault.Injector) error {
	m.eng.Reset(cfg.Seed)
	// Attach the flight recorder and the injector before any model
	// resets: models cache both pointers.
	m.eng.SetProbe(cfg.Probe)
	m.eng.SetFaults(inj)
	nodes := cfg.Layout.NumNodes
	for i := 0; i < nodes; i++ {
		if i < len(m.nodes) {
			if err := m.nodes[i].Reset(i, cfg.Node); err != nil {
				return err
			}
			continue
		}
		n, err := ionode.New(m.eng, i, cfg.Node)
		if err != nil {
			return err
		}
		m.nodes = append(m.nodes, n)
	}
	clear(m.nodes[nodes:])
	m.nodes = m.nodes[:nodes]
	var err error
	if m.net == nil {
		m.net, err = netsim.New(m.eng, cfg.Net)
	} else {
		err = m.net.Reset(cfg.Net)
	}
	if err != nil {
		return err
	}
	if m.mw == nil {
		m.mw, err = mpiio.New(m.eng, cfg.Layout, m.nodes, m.net)
	} else {
		err = m.mw.Reset(cfg.Layout, m.nodes, m.net)
	}
	if err != nil {
		return err
	}
	m.ex.reset(m, setup, cfg)
	if setup == nil {
		return nil
	}
	for _, f := range setup.prog.Files {
		if _, err := m.mw.Open(f.ID, f.Name, f.Size); err != nil {
			return err
		}
	}
	return nil
}

// release hands m back to the free list after a completed run. Only a
// drained machine goes back (no event queued, no pooled request in
// flight), and only while the list has room and the run's cache slabs fit
// maxIdleCacheSlots; any other machine is dropped. A returned machine is
// reset idle first, so it keeps no probe, injector, policy, recorder,
// setup or compile of the run.
func (m *machine) release() {
	node := m.ex.cfg.Node
	if m.eng.Pending() > 0 || m.mw.Live() > 0 || node.CacheBytes/node.UnitBytes+1 > maxIdleCacheSlots {
		return
	}
	for _, n := range m.nodes {
		if n.Live() > 0 {
			return
		}
	}
	shape := Config{Layout: m.ex.cfg.Layout, Node: node, Net: m.ex.cfg.Net}
	if m.reset(nil, shape, nil) != nil {
		return
	}
	machines.Lock()
	defer machines.Unlock()
	if len(machines.idle) < runtime.GOMAXPROCS(0) {
		machines.idle = append(machines.idle, m)
	}
}
