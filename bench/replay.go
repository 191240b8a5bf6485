package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"sdds/internal/cluster"
	"sdds/internal/compilecache"
	"sdds/internal/compiler"
	"sdds/internal/disk"
	"sdds/internal/harness"
	"sdds/internal/ionode"
	"sdds/internal/loop"
	"sdds/internal/mpiio"
	"sdds/internal/netsim"
	"sdds/internal/polyhedral"
	"sdds/internal/power"
	"sdds/internal/service"
	"sdds/internal/sim"
	"sdds/internal/stripe"
	"sdds/internal/workloads"
)

// Probe sizes: repetitions per timed probe, and memo hits timed.
const (
	probeReps = 5
	memoHits  = 200
)

// procs is the Table II client count every probe builds for.
var procs = cluster.DefaultConfig().Procs

// replayMetrics runs the per-layer probes that end every traced
// invocation. The set-up, store and service probes take this workload's
// own inputs and results; the compiler probe and the model-layer replays
// take fixed recorded inputs, so their numbers compare across workloads.
// Every time-valued per-layer metric comes from here or from run
// latencies, so none reads zero on a workload that bypasses its layer.
func replayMetrics(ctx context.Context, w *workload, o *options, es []entry) (map[string]float64, map[string]timing, error) {
	m := map[string]float64{}
	t := map[string]timing{}
	apps, scale := w.inputs(o)
	if err := setupProbe(apps, scale, m); err != nil {
		return nil, nil, err
	}
	if err := compileProbe(ctx, o, m); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(o.work, "replay-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	storePath := filepath.Join(dir, "store.jsonl")
	if err := storeProbe(storePath, es, m, t); err != nil {
		return nil, nil, err
	}
	if err := serviceProbe(ctx, storePath, es, m, t); err != nil {
		return nil, nil, err
	}
	if err := layerReplays(o, m); err != nil {
		return nil, nil, err
	}
	return m, t, nil
}

// setupProbe times building the workload's programs and their cluster
// setups, probeReps times.
func setupProbe(apps []string, scale float64, m map[string]float64) error {
	var build, setup []float64
	for rep := 0; rep < probeReps; rep++ {
		var b, s time.Duration
		for _, app := range apps {
			spec, err := workloads.ByName(app)
			if err != nil {
				return err
			}
			t0 := time.Now()
			prog := spec.Build(scale)
			t1 := time.Now()
			if _, err := cluster.NewSetup(prog, procs); err != nil {
				return err
			}
			b += t1.Sub(t0)
			s += time.Since(t1)
		}
		build = append(build, ms(b))
		setup = append(setup, ms(s))
	}
	m["workloads.build_ms"] = median(build)
	m["cluster.setup_ms"] = median(setup)
	return nil
}

// compileProbe times the compiler and its two phases on madbench2, and
// memo hits of the compile cache.
func compileProbe(ctx context.Context, o *options, m map[string]float64) error {
	spec, err := workloads.ByName("madbench2")
	if err != nil {
		return err
	}
	prog := spec.Build(o.scale(0.05))
	opts := compiler.DefaultOptions(procs)
	var compileMS, allocMB, analyzeMS, scheduleNS []float64
	for rep := 0; rep < probeReps; rep++ {
		b0, _ := heapAllocs()
		t0 := time.Now()
		comp, err := compiler.CompileContext(ctx, prog, opts)
		compileMS = append(compileMS, ms(time.Since(t0)))
		b1, _ := heapAllocs()
		if err != nil {
			return err
		}
		allocMB = append(allocMB, (b1-b0)/1e6)
		t1 := time.Now()
		if _, err := polyhedral.Analyze(prog, opts.Procs); err != nil {
			return err
		}
		analyzeMS = append(analyzeMS, ms(time.Since(t1)))
		t2 := time.Now()
		if _, err := reschedule(prog, opts, comp.Accesses); err != nil {
			return err
		}
		scheduleNS = append(scheduleNS, ratio(float64(time.Since(t2).Nanoseconds()), float64(len(comp.Accesses))))
	}
	m["compiler.compile_ms"] = median(compileMS)
	m["compiler.alloc_mb"] = median(allocMB)
	m["polyhedral.analyze_ms"] = median(analyzeMS)
	m["core.ns_per_access"] = median(scheduleNS)

	cache := compilecache.New()
	if _, _, err := cache.CompileContext(ctx, prog, opts); err != nil {
		return err
	}
	t0 := time.Now()
	for i := 0; i < memoHits; i++ {
		if _, prov, err := cache.CompileContext(ctx, prog, opts); err != nil || prov != compiler.ProvMemory {
			return fmt.Errorf("compile cache memo probe: provenance %v, err %v", prov, err)
		}
	}
	m["compilecache.memo_hit_us"] = float64(time.Since(t0).Microseconds()) / memoHits
	return nil
}

// storeProbe appends the workload's records to a fresh journal, fsync
// included, then looks every one up.
func storeProbe(path string, es []entry, m map[string]float64, t map[string]timing) error {
	j, err := harness.OpenJournal(path, false)
	if err != nil {
		return err
	}
	var appendMS, lookupUS []float64
	for _, e := range es {
		t0 := time.Now()
		if _, err := j.AppendRecord(e.req, e.rec); err != nil {
			j.Close()
			return err
		}
		appendMS = append(appendMS, ms(time.Since(t0)))
	}
	for _, e := range es {
		t0 := time.Now()
		_, _, ok, err := j.Lookup(e.req.ContentKey())
		lookupUS = append(lookupUS, float64(time.Since(t0).Nanoseconds())/1e3)
		if err != nil || !ok {
			j.Close()
			return fmt.Errorf("store probe: lookup %s: found=%v err=%v", e.req.Key(), ok, err)
		}
	}
	if err := j.Close(); err != nil {
		return err
	}
	m["store.append_ms"] = median(appendMS)
	m["store.lookup_us"] = median(lookupUS)
	t["store.append_ms"] = summarize(appendMS)
	t["store.lookup_us"] = summarize(lookupUS)
	return nil
}

// serviceProbe serves the store the store probe wrote from an in-process
// sddsd and reads every result readRounds times over one loopback
// connection: the latency of a cache hit through the HTTP service.
func serviceProbe(ctx context.Context, path string, es []entry, m map[string]float64, t map[string]timing) error {
	srv, err := service.NewServer(service.Options{StorePath: path, Workers: 1, ArtifactPath: "off", LocalGrace: -1})
	if err != nil {
		return err
	}
	base, stop, err := serveLocal(srv)
	if err != nil {
		return err
	}
	transport := &http.Transport{MaxConnsPerHost: 1}
	lat, err := readAll(ctx, &http.Client{Transport: transport, Timeout: time.Minute}, base, es)
	if serr := stop(); err == nil {
		err = serr
	}
	transport.CloseIdleConnections()
	if err != nil {
		return err
	}
	m["service.hit_p50_ms"] = percentile(lat, 50)
	m["service.hit_p90_ms"] = percentile(lat, 90)
	t["service.hit_ms"] = summarize(lat)
	return nil
}

// readAll posts every entry's request readRounds times and returns each
// read's latency in milliseconds; every read must be served from the store.
func readAll(ctx context.Context, client *http.Client, base string, es []entry) ([]float64, error) {
	bodies := make([][]byte, len(es))
	for i, e := range es {
		b, err := json.Marshal(e.req)
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	var lat []float64
	for round := 0; round < readRounds; round++ {
		for i, body := range bodies {
			t0 := time.Now()
			r, err := postRun(ctx, client, base, body)
			lat = append(lat, ms(time.Since(t0)))
			if err != nil {
				return nil, err
			}
			if !r.Cached {
				return nil, fmt.Errorf("service probe: %s was not served from the store", es[i].req.Key())
			}
		}
	}
	return lat, nil
}

// layerReplays drives the mpiio, ionode, netsim and disk models with
// wupwise's I/O stream at 30% scale, each process closed-loop (its next
// call issues when the previous completes) on a bench-owned engine.
func layerReplays(o *options, m map[string]float64) error {
	spec, err := workloads.ByName("wupwise")
	if err != nil {
		return err
	}
	prog := spec.Build(o.scale(0.3))
	layout := stripe.DefaultLayout()
	insts := make([][]loop.IOInstance, procs)
	for _, in := range prog.Instances(procs) {
		insts[in.Proc] = append(insts[in.Proc], in)
	}
	chunks := chunkStreams(prog, layout, insts)

	r, err := replayMPIIO(prog, layout, insts)
	if err != nil {
		return err
	}
	m["mpiio.ns_per_call"] = r.nsPerCall()
	m["mpiio.allocs_per_call"] = ratio(r.allocs, float64(r.calls))
	m["sim.events"] = float64(r.events)
	m["sim.ns_per_event"] = ratio(float64(r.host.Nanoseconds()), float64(r.events))

	if r, err = replayIONode(layout, chunks); err != nil {
		return err
	}
	m["ionode.ns_per_call"] = r.nsPerCall()
	m["ionode.allocs_per_call"] = ratio(r.allocs, float64(r.calls))

	if r, err = replayNet(layout, chunks); err != nil {
		return err
	}
	m["netsim.ns_per_transfer"] = r.nsPerCall()

	if r, err = replayDisk(layout, chunks); err != nil {
		return err
	}
	m["disk.ns_per_request"] = r.nsPerCall()
	return nil
}

// chunkOp is one stripe-unit piece of an I/O instance, as the middleware
// hands it to an I/O node.
type chunkOp struct {
	write  bool
	file   int
	node   int
	unit   int64
	offset int64
	length int64
}

// chunkStreams splits every process's instances by stripe unit, wrapping
// offsets into the file the way the middleware does.
func chunkStreams(prog *loop.Program, layout stripe.Layout, insts [][]loop.IOInstance) [][]chunkOp {
	size := map[int]int64{}
	for _, f := range prog.Files {
		size[f.ID] = f.Size
	}
	out := make([][]chunkOp, len(insts))
	for p, ins := range insts {
		for _, in := range ins {
			for _, c := range layout.Chunks(in.Offset%size[in.File], in.Length) {
				out[p] = append(out[p], chunkOp{
					write: in.Kind == loop.StmtWrite, file: in.File,
					node: c.Node, unit: c.Unit, offset: c.Offset, length: c.Length,
				})
			}
		}
	}
	return out
}

// replay is one layer replay's engine and tallies.
type replay struct {
	eng    *sim.Engine
	calls  int64
	err    error
	host   time.Duration
	allocs float64
	events uint64
}

func (r *replay) nsPerCall() float64 { return ratio(float64(r.host.Nanoseconds()), float64(r.calls)) }

// stepper is a replay client: step issues its next call, if any is left.
type stepper interface{ step(now sim.Time) }

// startStepper is the pre-bound start handler of every replay client.
func startStepper(now sim.Time, arg any) { arg.(stepper).step(now) }

// run starts every client at time zero and drains the engine, timing host
// time and heap allocations of the replay alone.
func (r *replay) run(clients []stepper) (*replay, error) {
	for _, c := range clients {
		r.eng.ScheduleArg(0, "replay.start", startStepper, c)
	}
	_, a0 := heapAllocs()
	t0 := time.Now()
	r.eng.Run()
	r.host = time.Since(t0)
	_, a1 := heapAllocs()
	r.allocs = a1 - a0
	r.events = r.eng.EventsFired()
	return r, r.err
}

// nodes builds the Table II I/O nodes on eng.
func nodes(eng *sim.Engine, layout stripe.Layout) ([]*ionode.Node, error) {
	out := make([]*ionode.Node, layout.NumNodes)
	for i := range out {
		n, err := ionode.New(eng, i, ionode.DefaultConfig())
		if err != nil {
			return nil, err
		}
		out[i] = n
	}
	return out, nil
}

// mpiioClient replays one process's instances through Middleware.Read and
// Write over real nodes and the network.
type mpiioClient struct {
	r     *replay
	mw    *mpiio.Middleware
	insts []loop.IOInstance
	next  int
	done  func(sim.Time, bool)
}

func (c *mpiioClient) step(sim.Time) {
	if c.next == len(c.insts) || c.r.err != nil {
		return
	}
	in := c.insts[c.next]
	c.next++
	var err error
	if in.Kind == loop.StmtWrite {
		err = c.mw.Write(in.File, in.Offset, in.Length, c.done)
	} else {
		err = c.mw.Read(in.File, in.Offset, in.Length, c.done)
	}
	if err != nil {
		c.r.err = err
		return
	}
	c.r.calls++
}

func (c *mpiioClient) completed(now sim.Time, _ bool) { c.step(now) }

func replayMPIIO(prog *loop.Program, layout stripe.Layout, insts [][]loop.IOInstance) (*replay, error) {
	r := &replay{eng: sim.NewEngine(1)}
	ns, err := nodes(r.eng, layout)
	if err != nil {
		return nil, err
	}
	net, err := netsim.New(r.eng, netsim.DefaultConfig(layout.NumNodes))
	if err != nil {
		return nil, err
	}
	mw, err := mpiio.New(r.eng, layout, ns, net)
	if err != nil {
		return nil, err
	}
	for _, f := range prog.Files {
		if _, err := mw.Open(f.ID, f.Name, f.Size); err != nil {
			return nil, err
		}
	}
	clients := make([]stepper, len(insts))
	for p, in := range insts {
		c := &mpiioClient{r: r, mw: mw, insts: in}
		c.done = c.completed
		clients[p] = c
	}
	return r.run(clients)
}

// nodeClient replays one process's chunks through Node.Read and Write.
type nodeClient struct {
	r     *replay
	nodes []*ionode.Node
	ops   []chunkOp
	next  int
	done  func(sim.Time, bool)
}

func (c *nodeClient) step(sim.Time) {
	if c.next == len(c.ops) || c.r.err != nil {
		return
	}
	op := c.ops[c.next]
	c.next++
	n := c.nodes[op.node]
	var err error
	if op.write {
		err = n.Write(op.file, op.unit, op.offset, op.length, c.done)
	} else {
		err = n.Read(op.file, op.unit, op.offset, op.length, c.done)
	}
	if err != nil {
		c.r.err = err
		return
	}
	c.r.calls++
}

func (c *nodeClient) completed(now sim.Time, _ bool) { c.step(now) }

func replayIONode(layout stripe.Layout, chunks [][]chunkOp) (*replay, error) {
	r := &replay{eng: sim.NewEngine(1)}
	ns, err := nodes(r.eng, layout)
	if err != nil {
		return nil, err
	}
	clients := make([]stepper, len(chunks))
	for p, ops := range chunks {
		c := &nodeClient{r: r, nodes: ns, ops: ops}
		c.done = c.completed
		clients[p] = c
	}
	return r.run(clients)
}

// netClient replays one process's chunks as Network.Transfer calls.
type netClient struct {
	r    *replay
	net  *netsim.Network
	ops  []chunkOp
	next int
	done func(sim.Time)
}

func (c *netClient) step(sim.Time) {
	if c.next == len(c.ops) || c.r.err != nil {
		return
	}
	op := c.ops[c.next]
	c.next++
	if err := c.net.Transfer(op.node, op.length, c.done); err != nil {
		c.r.err = err
		return
	}
	c.r.calls++
}

func replayNet(layout stripe.Layout, chunks [][]chunkOp) (*replay, error) {
	r := &replay{eng: sim.NewEngine(1)}
	net, err := netsim.New(r.eng, netsim.DefaultConfig(layout.NumNodes))
	if err != nil {
		return nil, err
	}
	clients := make([]stepper, len(chunks))
	for p, ops := range chunks {
		c := &netClient{r: r, net: net, ops: ops}
		c.done = c.step
		clients[p] = c
	}
	return r.run(clients)
}

// diskClient replays one process's chunks as Disk.Submit calls on the
// chunk's node disk, reusing one request.
type diskClient struct {
	r     *replay
	disks []*disk.Disk
	ops   []chunkOp
	next  int
	req   disk.Request
	// unitBytes is the stripe unit; a node holds every len(disks)-th unit.
	unitBytes int64
}

func (c *diskClient) step(sim.Time) {
	if c.next == len(c.ops) || c.r.err != nil {
		return
	}
	op := c.ops[c.next]
	c.next++
	d := c.disks[op.node]
	p := d.Params()
	byteOff := op.unit/int64(len(c.disks))*c.unitBytes + op.offset
	c.req.Op = disk.OpRead
	if op.write {
		c.req.Op = disk.OpWrite
	}
	c.req.Sector = byteOff / int64(p.SectorSize) % p.TotalSectors()
	c.req.Bytes = op.length
	if err := d.Submit(&c.req); err != nil {
		c.r.err = err
		return
	}
	c.r.calls++
}

func (c *diskClient) served(now sim.Time, _ *disk.Request) { c.step(now) }

func replayDisk(layout stripe.Layout, chunks [][]chunkOp) (*replay, error) {
	r := &replay{eng: sim.NewEngine(1)}
	disks := make([]*disk.Disk, layout.NumNodes)
	for i := range disks {
		d, err := disk.New(r.eng, i, disk.DefaultParams())
		if err != nil {
			return nil, err
		}
		pol, err := power.New(r.eng, power.Config{Kind: power.KindHistory})
		if err != nil {
			return nil, err
		}
		pol.Attach(d)
		disks[i] = d
	}
	clients := make([]stepper, len(chunks))
	for p, ops := range chunks {
		c := &diskClient{r: r, disks: disks, ops: ops, unitBytes: layout.StripeSize}
		c.req.Done = c.served
		clients[p] = c
	}
	return r.run(clients)
}
