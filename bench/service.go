package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sdds/internal/harness"
	"sdds/internal/service"
	"sdds/internal/shard"
)

// shardWorkers is the number of in-process shard workers, one simulation
// each: the box's two cores.
const shardWorkers = 2

// readRounds is how many times the read phase requests every result.
const readRounds = 20

// serviceSharded submits the sweep plan to an in-process sddsd over
// loopback HTTP, lets two shard workers drain it into a fresh on-disk
// store, collects the merged results, then reads every result back
// readRounds times. Its records must equal the direct sweep's.
func serviceSharded() *workload {
	return &workload{
		name:       "service-sharded",
		inputs:     sweepInputs,
		refName:    "sweep-5pct",
		refKeys:    []string{"records"},
		crossCheck: directSweepDigest,
		setup:      newServicePass,
	}
}

// serveLocal serves srv on a loopback port until stop, which shuts the
// server down, closes its stores and returns Serve's error.
func serveLocal(srv *service.Server) (base string, stop func() error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return "", nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	return "http://" + ln.Addr().String(), func() error {
		cancel()
		return <-served
	}, nil
}

// laneKey carries the trace lane of an HTTP caller in its request context.
type laneKey struct{}

func withLane(ctx context.Context, lane int) context.Context {
	return context.WithValue(ctx, laneKey{}, lane)
}

// spanTransport times every HTTP round trip: shard lease, renew and
// complete calls are counted and summed, and traced passes record a span
// per call on its caller's lane.
type spanTransport struct {
	base     http.RoundTripper
	tr       *tracer
	rpcCalls atomic.Int64
	rpcNanos atomic.Int64
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	end := time.Now()
	var name string
	switch path := req.URL.Path; {
	case path == "/v1/shards/lease" || path == "/v1/shards/renew" || path == "/v1/shards/complete":
		name = "shard." + filepath.Base(path)
		t.rpcCalls.Add(1)
		t.rpcNanos.Add(int64(end.Sub(start)))
	case strings.HasPrefix(path, "/v1/shards/"):
		name = "shard." + filepath.Base(path)
	case strings.HasPrefix(path, "/v1/runs/"):
		name = "service.get_run"
	default:
		name = "service." + req.Method + " " + path
	}
	lane, _ := req.Context().Value(laneKey{}).(int)
	t.tr.add(name, -1, lane, "", start, end)
	return resp, err
}

// servicePass is one server with a fresh store, its listener, and the two
// worker sessions.
type servicePass struct {
	dir       string
	base      string
	plan      []harness.Request
	srv       *service.Server
	stopSrv   func() error
	transport *http.Transport
	rt        *spanTransport
	client    *http.Client

	sessions [shardWorkers]*harness.Session
	// execMu serializes each worker's Exec calls: its session runs one
	// simulation at a time anyway, and holding the slot outside the timer
	// keeps queueing out of the run latency.
	execMu [shardWorkers]sync.Mutex
	lat    [shardWorkers][]time.Duration
	busy   [shardWorkers]time.Duration
}

func newServicePass(ctx context.Context, o *options) (instance, error) {
	dir, err := os.MkdirTemp(o.work, "service-")
	if err != nil {
		return nil, err
	}
	p := &servicePass{dir: dir, plan: harness.PlanRequests(harness.All(), sweepConfig(o))}
	for i := range p.sessions {
		// A worker's journal directory must exist before its first shard.
		if err := os.MkdirAll(p.journalDir(i), 0o755); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		p.sessions[i] = harness.NewSession(harness.SessionOptions{Workers: 1})
	}
	p.srv, err = service.NewServer(service.Options{
		StorePath:    filepath.Join(dir, "store.jsonl"),
		Workers:      1,
		ArtifactPath: "off",
		LocalGrace:   -1,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if p.base, p.stopSrv, err = serveLocal(p.srv); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	p.transport = &http.Transport{MaxConnsPerHost: shardWorkers, MaxIdleConnsPerHost: shardWorkers}
	p.rt = &spanTransport{base: p.transport}
	p.client = &http.Client{Transport: p.rt, Timeout: time.Minute}
	return p, nil
}

func (p *servicePass) journalDir(i int) string { return filepath.Join(p.dir, fmt.Sprintf("w%d", i)) }

func (p *servicePass) close() error {
	err := p.stopSrv()
	p.transport.CloseIdleConnections()
	if rerr := os.RemoveAll(p.dir); err == nil {
		err = rerr
	}
	return err
}

// exec is worker i's shard.Executor: one request through its session,
// timed and, when traced, recorded as a span on the worker's lane.
func (p *servicePass) exec(i int, tr *tracer) shard.Executor {
	return func(ctx context.Context, req harness.Request) (harness.RunRecord, error) {
		p.execMu[i].Lock()
		defer p.execMu[i].Unlock()
		sp := tr.begin("shard.exec", -1, i+1, req.ContentKey())
		t0 := time.Now()
		res, _, err := p.sessions[i].RunRequest(ctx, req)
		d := time.Since(t0)
		tr.end(sp)
		if err != nil {
			return harness.RunRecord{}, err
		}
		p.lat[i] = append(p.lat[i], d)
		p.busy[i] += d
		return harness.NewRunRecord(res), nil
	}
}

func (p *servicePass) pass(ctx context.Context, tr *tracer) (*passOut, error) {
	out := newPassOut()
	p.rt.tr = tr
	cl := &shard.Client{BaseURL: p.base, HTTP: p.client}
	root := tr.begin("bench.pass", -1, 0, "")
	passStart := time.Now()

	sp := tr.begin("shard.submit", root, 0, "")
	if _, err := cl.Submit(withLane(ctx, 0), shard.SubmitRequest{Requests: p.plan}); err != nil {
		return nil, err
	}
	tr.end(sp)
	workCtx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	// On an early return the workers are told to stop and waited for.
	defer func() {
		cancel()
		wg.Wait()
	}()
	var werrs [shardWorkers]error
	for i := 0; i < shardWorkers; i++ {
		w := &shard.Worker{
			API:          cl,
			Exec:         p.exec(i, tr),
			Name:         fmt.Sprintf("bench-%d", i),
			ExitWhenDone: true,
			JournalDir:   p.journalDir(i),
			Poll:         5 * time.Millisecond,
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			werrs[i] = w.Run(withLane(workCtx, i+1))
		}(i)
	}
	sp = tr.begin("shard.wait", root, 0, "")
	snap, err := cl.WaitDone(withLane(ctx, 0), 5*time.Millisecond)
	tr.end(sp)
	sharded := time.Since(passStart)
	if err != nil {
		return nil, err
	}

	sp = tr.begin("service.collect", root, 0, "")
	for _, req := range p.plan {
		out.ops++
		_, rec, err := cl.Run(withLane(ctx, 0), req.ContentKey())
		if err != nil {
			return nil, err
		}
		out.entries = append(out.entries, entry{req, rec})
	}
	tr.end(sp)

	sp = tr.begin("service.read", root, 0, "")
	readStart := time.Now()
	first := make([]json.RawMessage, len(p.plan))
	for round := 0; round < readRounds; round++ {
		for i, req := range p.plan {
			out.ops++
			got, err := p.read(withLane(ctx, 0), req)
			if err != nil {
				return nil, err
			}
			if round == 0 {
				first[i] = got
			} else if !bytes.Equal(got, first[i]) {
				out.fail("%s: read %d returned a different record", req.Key(), round)
			}
		}
	}
	read := time.Since(readStart)
	tr.end(sp)
	tr.end(root)
	wall := time.Since(passStart)
	wg.Wait()
	for _, err := range werrs {
		if err != nil {
			return nil, err
		}
	}

	var simulated, groups, hits, misses int64
	var busy time.Duration
	for i, s := range p.sessions {
		n, _ := s.Stats()
		simulated += n
		groups += int64(s.SetupGroups())
		cc := s.CompileCacheStats()
		hits += cc.Hits
		misses += cc.Misses
		out.runs = append(out.runs, p.lat[i]...)
		busy += p.busy[i]
	}
	workerTime := shardWorkers * sharded.Seconds()
	l := out.layers
	l["harness.distinct_runs"] = float64(simulated)
	l["harness.cache_reads"] = float64(p.srv.Status().CacheHits)
	l["harness.setup_groups"] = float64(groups)
	cacheLayers(l, hits, misses)
	l["shard.calls"] = float64(p.rt.rpcCalls.Load())
	l["shard.rpc_frac"] = ratio(time.Duration(p.rt.rpcNanos.Load()).Seconds(), workerTime)
	l["shard.worker_idle_frac"] = 1 - ratio(busy.Seconds(), workerTime)
	l["shard.requeues"] = float64(snap.Requeues)
	l["shard.duplicates"] = float64(snap.Duplicates)
	l["service.read_frac"] = ratio(read.Seconds(), wall.Seconds())
	return out, nil
}

// read posts req to /v1/runs and returns the cached result's JSON.
func (p *servicePass) read(ctx context.Context, req harness.Request) (json.RawMessage, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := postRun(ctx, p.client, p.base, body)
	if err != nil {
		return nil, err
	}
	if !resp.Cached {
		return nil, fmt.Errorf("%s: read was not served from the store", req.Key())
	}
	return resp.Result, nil
}

// runReply is the part of a POST /v1/runs answer the reads check.
type runReply struct {
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
	Error  string          `json:"error"`
}

// postRun sends one POST /v1/runs and decodes the reply.
func postRun(ctx context.Context, client *http.Client, base string, body []byte) (runReply, error) {
	var r runReply
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/runs", bytes.NewReader(body))
	if err != nil {
		return r, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(hreq)
	if err != nil {
		return r, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("POST /v1/runs: %w", err)
	}
	if resp.StatusCode != http.StatusOK || r.Error != "" || len(r.Result) == 0 {
		return r, errors.New("POST /v1/runs: " + resp.Status + " " + r.Error)
	}
	return r, nil
}
