package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"sdds/internal/harness"
	"sdds/internal/shard"
)

// newShardServer builds a service with the sharded-sweep options under
// test (local fallback disabled unless the test wants it) and mounts it
// on an httptest server.
func newShardServer(t *testing.T, o Options) (*Server, *httptest.Server) {
	t.Helper()
	if o.StorePath == "" {
		o.StorePath = filepath.Join(t.TempDir(), "store.jsonl")
	}
	s, err := NewServer(o)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// sessionExec adapts a harness session to the worker executor.
func sessionExec(sess *harness.Session) shard.Executor {
	return func(ctx context.Context, req harness.Request) (harness.RunRecord, error) {
		res, _, err := sess.RunRequest(ctx, req)
		if err != nil {
			return harness.RunRecord{}, err
		}
		return harness.NewRunRecord(res), nil
	}
}

// TestShardEndpointsNoSweep pins the no-active-sweep surface: workers
// wait on lease, drop shards on renew, status is inactive — and a
// completion arriving after a coordinator restart is still committed
// straight to the store, never thrown away.
func TestShardEndpointsNoSweep(t *testing.T) {
	s, ts := newShardServer(t, Options{LocalGrace: -1, Workers: 1})
	ctx := context.Background()
	cl := &shard.Client{BaseURL: ts.URL}

	lease, err := cl.Lease(ctx, "w1")
	if err != nil || lease.Status != shard.StatusWait {
		t.Fatalf("lease with no sweep: %+v, %v", lease, err)
	}
	renew, err := cl.Renew(ctx, shard.RenewRequest{Worker: "w1", ShardID: "x", LeaseID: "x#1"})
	if err != nil || renew.Status != shard.StatusDone {
		t.Fatalf("renew with no sweep: %+v, %v", renew, err)
	}
	snap, err := cl.Status(ctx)
	if err != nil || snap.Active {
		t.Fatalf("status with no sweep: %+v, %v", snap, err)
	}

	// Orphaned completion: committed to the store anyway.
	req, err := harness.Request{App: "sar", Scale: 0.02, Seed: 7}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	comp, err := cl.Complete(ctx, shard.CompleteRequest{
		Worker: "w1", ShardID: "x", LeaseID: "x#1",
		Results: []shard.RunEntry{{Request: req, Result: harness.RunRecord{EnergyJ: 3}}},
	})
	if err != nil || comp.Status != shard.StatusDuplicate || comp.Stored != 1 {
		t.Fatalf("orphaned completion: %+v, %v", comp, err)
	}
	if s.journal.Len() != 1 {
		t.Fatalf("store holds %d entries, want the orphaned result", s.journal.Len())
	}
}

// TestShardSubmitValidation pins submit-side rejections: empty plans,
// invalid requests, and double submission while a sweep is active.
func TestShardSubmitValidation(t *testing.T) {
	_, ts := newShardServer(t, Options{LocalGrace: -1, Workers: 1})
	ctx := context.Background()
	cl := &shard.Client{BaseURL: ts.URL}

	if _, err := cl.Submit(ctx, shard.SubmitRequest{}); err == nil {
		t.Fatal("empty plan accepted")
	}
	if _, err := cl.Submit(ctx, shard.SubmitRequest{
		Requests: []harness.Request{{App: "nosuch"}},
	}); err == nil {
		t.Fatal("invalid request accepted")
	}
	req, err := harness.Request{App: "sar", Scale: 0.02, Seed: 7}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	sub, err := cl.Submit(ctx, shard.SubmitRequest{Requests: []harness.Request{req}})
	if err != nil || sub.Shards != 1 {
		t.Fatalf("submit: %+v, %v", sub, err)
	}
	// The sweep is active (no worker will drain it): resubmission conflicts.
	if _, err := cl.Submit(ctx, shard.SubmitRequest{Requests: []harness.Request{req}}); err == nil {
		t.Fatal("second submit accepted while a sweep is active")
	} else if !strings.Contains(err.Error(), "already active") {
		t.Fatalf("conflict error: %v", err)
	}
}

// TestShardedGoldenByteIdentical is the tentpole acceptance test: the 24
// golden configs executed as a sharded sweep by two workers — each with
// its own session, talking HTTP to the coordinator — merge back
// byte-identical (as canonical RunRecord JSON) to direct single-process
// session runs.
func TestShardedGoldenByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("48 golden simulations; skipped in -short")
	}
	_, ts := newShardServer(t, Options{LocalGrace: -1, LeaseTTL: 30 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	cl := &shard.Client{BaseURL: ts.URL}

	golden := goldenRequests()
	sub, err := cl.Submit(ctx, shard.SubmitRequest{Requests: golden, ShardSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Requests != 24 || sub.Shards != 8 {
		t.Fatalf("submit summary: %+v", sub)
	}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		w := &shard.Worker{
			API:          cl,
			Exec:         sessionExec(harness.NewSession(harness.SessionOptions{})),
			Name:         fmt.Sprintf("w%d", i+1),
			Poll:         50 * time.Millisecond,
			ExitWhenDone: true,
			JournalDir:   t.TempDir(),
		}
		wg.Add(1)
		go func(i int, w *shard.Worker) {
			defer wg.Done()
			errs[i] = w.Run(ctx)
		}(i, w)
	}
	snap, err := cl.WaitDone(ctx, 100*time.Millisecond)
	if err != nil {
		t.Fatalf("sweep failed: %v (%+v)", err, snap)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i+1, err)
		}
	}
	if snap.Completed != 8 || snap.Stored != 24 || len(snap.Workers) != 2 {
		t.Fatalf("final snapshot: %+v", snap)
	}

	direct := harness.NewSession(harness.SessionOptions{})
	for _, req := range golden {
		norm, err := req.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		_, rec, err := cl.Run(ctx, norm.ContentKey())
		if err != nil {
			t.Fatalf("%s: collecting merged result: %v", norm.Key(), err)
		}
		res, _, err := direct.RunRequest(ctx, req)
		if err != nil {
			t.Fatalf("%s: direct run: %v", norm.Key(), err)
		}
		want, err := json.Marshal(harness.NewRunRecord(res))
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: sharded result diverges from direct run\nsharded: %s\ndirect:  %s",
				norm.Key(), got, want)
		}
	}
}

// TestShardChaosKillWorker is the chaos acceptance test: a worker
// holding a shard dies mid-execution (its context is cut, heartbeats
// stop, the lease expires), a second worker picks the shard up, and the
// merged results are still byte-identical to direct runs — with the
// requeue visible in the coordinator counters.
func TestShardChaosKillWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("golden simulations; skipped in -short")
	}
	_, ts := newShardServer(t, Options{LocalGrace: -1, LeaseTTL: 500 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	cl := &shard.Client{BaseURL: ts.URL}

	reqs := goldenRequests()[:4]
	if _, err := cl.Submit(ctx, shard.SubmitRequest{Requests: reqs, ShardSize: 2}); err != nil {
		t.Fatal(err)
	}

	// The victim's Exec never finishes: it blocks until the worker's
	// context is cut — the in-process stand-in for SIGKILL mid-simulation.
	victimCtx, killVictim := context.WithCancel(ctx)
	defer killVictim()
	victim := &shard.Worker{
		API:  cl,
		Name: "victim",
		Poll: 20 * time.Millisecond,
		Exec: func(ctx context.Context, _ harness.Request) (harness.RunRecord, error) {
			<-ctx.Done()
			return harness.RunRecord{}, ctx.Err()
		},
	}
	victimExited := make(chan struct{})
	go func() {
		defer close(victimExited)
		victim.Run(victimCtx)
	}()

	// Wait until the victim actually holds a lease, then kill it.
	for {
		snap, err := cl.Status(ctx)
		if err != nil {
			t.Fatal(err)
		}
		leased := false
		for _, sh := range snap.Shards {
			if sh.Worker == "victim" && sh.State == string(shard.Leased) {
				leased = true
			}
		}
		if leased {
			break
		}
		if ctx.Err() != nil {
			t.Fatal("victim never leased a shard")
		}
		time.Sleep(10 * time.Millisecond)
	}
	killVictim()
	<-victimExited

	rescuer := &shard.Worker{
		API:          cl,
		Exec:         sessionExec(harness.NewSession(harness.SessionOptions{})),
		Name:         "rescuer",
		Poll:         20 * time.Millisecond,
		ExitWhenDone: true,
	}
	if err := rescuer.Run(ctx); err != nil {
		t.Fatalf("rescuer: %v", err)
	}
	snap, err := cl.WaitDone(ctx, 50*time.Millisecond)
	if err != nil {
		t.Fatalf("sweep failed: %v (%+v)", err, snap)
	}
	if snap.Requeues < 1 {
		t.Fatalf("no requeue recorded after worker death: %+v", snap)
	}
	if snap.Stored != len(reqs) || snap.Completed != 2 {
		t.Fatalf("final snapshot: %+v", snap)
	}

	direct := harness.NewSession(harness.SessionOptions{})
	for _, req := range reqs {
		norm, _ := req.Normalize()
		_, rec, err := cl.Run(ctx, norm.ContentKey())
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := direct.RunRequest(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(harness.NewRunRecord(res))
		got, _ := json.Marshal(rec)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: post-chaos result diverges from direct run\nsharded: %s\ndirect:  %s",
				norm.Key(), got, want)
		}
	}
}

// TestShardLocalFallback pins graceful degradation: with no worker ever
// registering, the sweep completes through the in-process fallback
// worker after the grace period.
func TestShardLocalFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a run; skipped in -short")
	}
	_, ts := newShardServer(t, Options{LocalGrace: 50 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cl := &shard.Client{BaseURL: ts.URL}

	req, err := harness.Request{App: "sar", Scale: 0.02, Seed: 7}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Submit(ctx, shard.SubmitRequest{Requests: []harness.Request{req}}); err != nil {
		t.Fatal(err)
	}
	snap, err := cl.WaitDone(ctx, 50*time.Millisecond)
	if err != nil {
		t.Fatalf("fallback sweep failed: %v (%+v)", err, snap)
	}
	// The fallback executes through the server's own session, which
	// journals results itself — the coordinator's commit then dedups, so
	// Stored stays 0 while the store gains the entry.
	if snap.Completed != 1 || len(snap.Workers) != 1 || snap.Workers[0] != "local-fallback" {
		t.Fatalf("fallback snapshot: %+v", snap)
	}
	if _, _, err := cl.Run(ctx, req.ContentKey()); err != nil {
		t.Fatalf("merged result missing: %v", err)
	}
}

// TestGetRunInFlightDuringLocalFallback: a run the local-fallback worker
// is simulating never passes through the run handler, yet GET
// /v1/runs/{key} answers 202 for it and /v1/status lists it, because both
// read in-flight state from the session.
func TestGetRunInFlightDuringLocalFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a run; skipped in -short")
	}
	s, ts := newShardServer(t, Options{LocalGrace: 50 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cl := &shard.Client{BaseURL: ts.URL}

	req, err := harness.Request{App: "madbench2", Policy: "history", Scheduling: true, Scale: 0.2, Seed: 7}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Submit(ctx, shard.SubmitRequest{Requests: []harness.Request{req}}); err != nil {
		t.Fatal(err)
	}
	key := req.ContentKey()
	st := s.Status()
	for st.InFlight == 0 {
		if ctx.Err() != nil {
			t.Fatal("the fallback run never showed in flight")
		}
		time.Sleep(time.Millisecond)
		st = s.Status()
	}
	if code := getJSON(t, ts.URL+"/v1/runs/"+key, nil); code != http.StatusAccepted {
		t.Errorf("GET of the simulating run = %d, want 202", code)
	}
	if len(st.InFlightKeys) != st.InFlight || st.InFlightKeys[0] != key {
		t.Errorf("status inflight %d, inflight_keys %v; want one list holding %s", st.InFlight, st.InFlightKeys, key)
	}
	if snap, err := cl.WaitDone(ctx, 50*time.Millisecond); err != nil {
		t.Fatalf("fallback sweep failed: %v (%+v)", err, snap)
	}
	if code := getJSON(t, ts.URL+"/v1/runs/"+key, nil); code != http.StatusOK {
		t.Errorf("GET after the sweep = %d, want 200", code)
	}
}

// TestShardSmokeBinary is the end-to-end process-level chaos test behind
// `make shard-smoke`: build the real sddsd and sddsworker binaries,
// start the coordinator and a victim worker, SIGKILL the victim
// mid-shard, start a second worker, and require the sweep to finish with
// the requeue visible and the merged store byte-identical to direct
// in-process runs of the same plan.
func TestShardSmokeBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the daemon and workers; skipped in -short")
	}
	if runtime.GOOS == "windows" {
		t.Skip("signal-driven chaos test")
	}
	dir := t.TempDir()
	sddsd := filepath.Join(dir, "sddsd")
	worker := filepath.Join(dir, "sddsworker")
	for _, b := range [][2]string{{sddsd, "sdds/cmd/sddsd"}, {worker, "sdds/cmd/sddsworker"}} {
		if out, err := exec.Command("go", "build", "-o", b[0], b[1]).CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", b[1], err, out)
		}
	}

	storePath := filepath.Join(dir, "store.jsonl")
	addrFile := filepath.Join(dir, "addr")
	daemon := exec.Command(sddsd,
		"-addr", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-store", storePath,
		"-workers", "2",
		"-lease-ttl", "1s",
		"-local-grace", "-1s")
	var daemonErr bytes.Buffer
	daemon.Stderr = &daemonErr
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	daemonExited := make(chan error, 1)
	go func() { daemonExited <- daemon.Wait() }()
	defer func() {
		daemon.Process.Signal(syscall.SIGTERM)
		select {
		case <-daemonExited:
		case <-time.After(30 * time.Second):
			daemon.Process.Kill()
			<-daemonExited
		}
	}()

	var base string
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		if buf, err := os.ReadFile(addrFile); err == nil && len(buf) > 0 {
			base = "http://" + strings.TrimSpace(string(buf))
			break
		}
	}
	if base == "" {
		t.Fatalf("daemon never wrote %s\n%s", addrFile, daemonErr.String())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	cl := &shard.Client{BaseURL: base}

	// One big shard: the victim leases all of it, guaranteeing the kill
	// lands mid-shard and forces a requeue.
	plan := goldenRequests()[:8]
	sub, err := cl.Submit(ctx, shard.SubmitRequest{Requests: plan, ShardSize: len(plan)})
	if err != nil || sub.Shards != 1 {
		t.Fatalf("submit: %+v, %v", sub, err)
	}

	startWorker := func(name string) *exec.Cmd {
		cmd := exec.Command(worker,
			"-coordinator", base,
			"-name", name,
			"-workers", "2",
			"-journal-dir", filepath.Join(dir, name))
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		return cmd
	}
	victim := startWorker("victim")
	victimExited := make(chan error, 1)
	go func() { victimExited <- victim.Wait() }()

	// SIGKILL the victim the moment it holds the shard.
	for {
		snap, err := cl.Status(ctx)
		if err != nil {
			t.Fatal(err)
		}
		leased := false
		for _, sh := range snap.Shards {
			if sh.Worker == "victim" && sh.State == string(shard.Leased) {
				leased = true
			}
		}
		if leased {
			break
		}
		if ctx.Err() != nil {
			t.Fatalf("victim never leased the shard\n%s", daemonErr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	victim.Process.Kill()
	<-victimExited

	rescuer := startWorker("rescuer")
	rescuerExited := make(chan error, 1)
	go func() { rescuerExited <- rescuer.Wait() }()
	rescuerDone := false
	defer func() {
		if !rescuerDone {
			rescuer.Process.Kill()
			<-rescuerExited
		}
	}()

	snap, err := cl.WaitDone(ctx, 200*time.Millisecond)
	if err != nil {
		t.Fatalf("sweep failed: %v (%+v)\n%s", err, snap, daemonErr.String())
	}
	if snap.Requeues < 1 {
		t.Fatalf("no requeue after SIGKILL: %+v", snap)
	}
	if snap.Stored != len(plan) || snap.Completed != 1 {
		t.Fatalf("final snapshot: %+v", snap)
	}
	select {
	case err := <-rescuerExited:
		rescuerDone = true
		if err != nil {
			t.Fatalf("rescuer exited uncleanly: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("rescuer did not exit after the sweep finished")
	}

	// Fingerprint diff: every merged result must match a direct in-process
	// run byte for byte.
	direct := harness.NewSession(harness.SessionOptions{})
	for _, req := range plan {
		norm, _ := req.Normalize()
		_, rec, err := cl.Run(ctx, norm.ContentKey())
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := direct.RunRequest(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(harness.NewRunRecord(res))
		got, _ := json.Marshal(rec)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: sharded store diverges from direct run\nsharded: %s\ndirect:  %s",
				norm.Key(), got, want)
		}
	}
}
