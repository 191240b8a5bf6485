package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sdds/internal/cluster"
	"sdds/internal/harness"
	"sdds/internal/workloads"
)

// newTestServer builds a service over a store in dir and mounts it on an
// httptest server. Callers own both closes (t.Cleanup handles them).
func newTestServer(t *testing.T, storePath string, workers int) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewServer(Options{StorePath: storePath, Workers: workers})
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

// postJSON posts v and decodes the response body into out, returning the
// status code.
func postJSON(t *testing.T, url string, v any, out any) int {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// goldenRequests is the 24-config golden matrix of the cluster suite:
// six apps × {default, history-based} × {scheduling off, on} at the
// golden scale and seed.
func goldenRequests() []harness.Request {
	var reqs []harness.Request
	for _, app := range workloads.Names() {
		for _, policy := range []string{"default", "history-based"} {
			for _, sched := range []bool{false, true} {
				reqs = append(reqs, harness.Request{
					App: app, Policy: policy, Scheduling: sched, Scale: 0.05, Seed: 42,
				})
			}
		}
	}
	return reqs
}

// TestServiceRunMatchesDirectSession is the tentpole acceptance test: a
// run submitted over HTTP is byte-identical (as its canonical RunRecord
// JSON) to the same configuration run directly through harness.Session,
// across all 24 golden configs.
func TestServiceRunMatchesDirectSession(t *testing.T) {
	if testing.Short() {
		t.Skip("24 golden simulations; skipped in -short")
	}
	dir := t.TempDir()
	_, ts := newTestServer(t, filepath.Join(dir, "store.jsonl"), 0)
	direct := harness.NewSession(harness.SessionOptions{})
	for _, req := range goldenRequests() {
		var got RunResponse
		if code := postJSON(t, ts.URL+"/v1/runs", req, &got); code != http.StatusOK {
			t.Fatalf("%+v: status %d (%s)", req, code, got.Error)
		}
		if got.Result == nil {
			t.Fatalf("%+v: no result (%s)", req, got.Error)
		}
		res, _, err := direct.RunRequest(context.Background(), req)
		if err != nil {
			t.Fatalf("%+v: direct run: %v", req, err)
		}
		want := harness.NewRunRecord(res)
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := json.Marshal(*got.Result)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("%+v: HTTP result diverges from direct session run\nhttp:   %s\ndirect: %s",
				req, gotJSON, wantJSON)
		}
	}
}

// TestServiceRunValidation pins the 400 surface: malformed JSON, unknown
// fields, and requests that fail Normalize.
func TestServiceRunValidation(t *testing.T) {
	_, ts := newTestServer(t, filepath.Join(t.TempDir(), "store.jsonl"), 1)
	cases := []string{
		`{`,                                  // malformed
		`{"app":"sar","polcy":"x"}`,          // unknown field
		`{"app":"nosuch"}`,                   // unknown app
		`{"app":"sar","policy":"histroy"}`,   // policy typo
		`{"app":"sar","variant":"thetaa=8"}`, // variant typo
		`{"app":"sar","variant":"nodes=0"}`,  // no I/O nodes
		`{"app":"sar","variant":"procs=0"}`,  // no client nodes
		`{"app":"sar","faults":"stall=0.5,stall-lat=9223372036854775807"}`, // wraps the clock
	}
	for _, body := range cases {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, resp.StatusCode)
		}
	}
	// Rejected requests never reach the session: nothing ran, nothing failed.
	var st StatusResponse
	if code := getJSON(t, ts.URL+"/v1/status", &st); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if st.Simulated != 0 || st.CacheEntries != 0 {
		t.Fatalf("status after rejected requests = %+v", st)
	}
	var doc DoctorResponse
	getJSON(t, ts.URL+"/v1/doctor", &doc)
	if !strings.Contains(doc.Metrics, "sddsd_runs_failed 0") {
		t.Fatalf("rejected requests counted as failed runs:\n%s", doc.Metrics)
	}
}

// TestOracleRequestAgreesAcrossRoutes sends one faulted policy=oracle
// request down every route that executes requests — BuildRun +
// cluster.RunContext, a cold session, a session resumed from the cold
// one's journal, and sddsd's POST /v1/runs — and requires byte-identical
// RunRecord JSON from all four.
func TestOracleRequestAgreesAcrossRoutes(t *testing.T) {
	if testing.Short() {
		t.Skip("three oracle runs of two passes each")
	}
	ctx := context.Background()
	req := harness.Request{App: "sar", Policy: "oracle", Scale: 0.02, Seed: 3,
		Faults: "read=0.02,net-drop=0.01,stall=0.01,seed=7"}
	record := func(route string, res *cluster.Result) string {
		buf, err := json.Marshal(harness.NewRunRecord(res))
		if err != nil {
			t.Fatalf("%s: %v", route, err)
		}
		return string(buf)
	}

	prog, cfg, err := req.BuildRun()
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluster.RunContext(ctx, prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy.String() != "oracle" || res.Faults == nil {
		t.Fatalf("direct run: policy %v, faults %v", res.Policy, res.Faults)
	}
	want := record("direct", res)

	path := filepath.Join(t.TempDir(), "runs.jsonl")
	for _, resume := range []bool{false, true} {
		j, err := harness.OpenJournal(path, resume)
		if err != nil {
			t.Fatal(err)
		}
		sess := harness.NewSession(harness.SessionOptions{Journal: j})
		res, hit, err := sess.RunRequest(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		wantSims := int64(1)
		if resume {
			wantSims = 0 // served from the journal
		}
		if simulated, _ := sess.Stats(); hit != resume || simulated != wantSims {
			t.Fatalf("resume=%v: hit %v after %d simulations", resume, hit, simulated)
		}
		if got := record("session", res); got != want {
			t.Errorf("resume=%v: session record diverges\nsession: %s\ndirect:  %s", resume, got, want)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}

	_, ts := newTestServer(t, filepath.Join(t.TempDir(), "store.jsonl"), 1)
	var got RunResponse
	if code := postJSON(t, ts.URL+"/v1/runs", req, &got); code != http.StatusOK || got.Result == nil {
		t.Fatalf("POST /v1/runs: status %d (%s)", code, got.Error)
	}
	buf, err := json.Marshal(*got.Result)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf) != want {
		t.Errorf("sddsd record diverges\nsddsd:  %s\ndirect: %s", buf, want)
	}
}

// TestServiceRunGetAndStatus exercises the lookup and health surface
// around one run.
func TestServiceRunGetAndStatus(t *testing.T) {
	_, ts := newTestServer(t, filepath.Join(t.TempDir(), "store.jsonl"), 2)
	req := harness.Request{App: "sar", Scale: 0.02, Seed: 7}
	var run RunResponse
	if code := postJSON(t, ts.URL+"/v1/runs", req, &run); code != http.StatusOK {
		t.Fatalf("run status %d", code)
	}
	if run.Cached || run.Result == nil {
		t.Fatalf("first run: cached=%v result=%v", run.Cached, run.Result != nil)
	}

	var again RunResponse
	postJSON(t, ts.URL+"/v1/runs", req, &again)
	if !again.Cached {
		t.Fatal("identical resubmission was not served from cache")
	}

	var got RunResponse
	if code := getJSON(t, ts.URL+"/v1/runs/"+run.Key, &got); code != http.StatusOK {
		t.Fatalf("GET run status %d", code)
	}
	if got.Result == nil || !got.Cached {
		t.Fatalf("GET run: %+v", got)
	}
	if code := getJSON(t, ts.URL+"/v1/runs/deadbeef", nil); code != http.StatusNotFound {
		t.Fatalf("unknown key status %d, want 404", code)
	}

	var st StatusResponse
	if code := getJSON(t, ts.URL+"/v1/status", &st); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if st.Simulated != 1 || st.StoreEntries != 1 || st.InFlight != 0 {
		t.Fatalf("status = %+v", st)
	}

	var doc DoctorResponse
	if code := getJSON(t, ts.URL+"/v1/doctor", &doc); code != http.StatusOK {
		t.Fatalf("doctor status %d", code)
	}
	if doc.Status != "ok" {
		t.Fatalf("doctor = %+v", doc)
	}
	if len(doc.Tail) != 1 || doc.Tail[0].Key != run.Key {
		t.Fatalf("doctor tail = %+v", doc.Tail)
	}
	if !strings.Contains(doc.Metrics, "sddsd_runs_simulated 1") {
		t.Fatalf("doctor metrics missing simulated count:\n%s", doc.Metrics)
	}

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var text bytes.Buffer
	text.ReadFrom(resp.Body)
	if !strings.Contains(text.String(), "# TYPE sddsd_runs_submitted counter") {
		t.Fatalf("metrics endpoint:\n%s", text.String())
	}
}

// TestServiceSweepDedupsWithinAndAcrossRestarts is the persistence
// acceptance test: a sweep resolves each distinct config once, and after
// a restart over the same store an identical sweep simulates zero runs.
func TestServiceSweepDedupsWithinAndAcrossRestarts(t *testing.T) {
	storePath := filepath.Join(t.TempDir(), "store.jsonl")
	sw := SweepRequest{
		Apps:       []string{"sar", "hf"},
		Policies:   []string{"default", "history"},
		Scheduling: []bool{false, true},
		Scale:      0.02,
		Seed:       7,
		// One duplicate of a cross-product cell: dedup must fold it in.
		Requests: []harness.Request{{App: "sar", Policy: "default", Scale: 0.02, Seed: 7}},
	}

	s1, ts1 := newTestServer(t, storePath, 4)
	var first SweepResponse
	if code := postJSON(t, ts1.URL+"/v1/sweeps", sw, &first); code != http.StatusOK {
		t.Fatalf("sweep status %d", code)
	}
	if first.Total != 9 || first.Distinct != 8 {
		t.Fatalf("sweep total/distinct = %d/%d, want 9/8", first.Total, first.Distinct)
	}
	if first.Simulated != 8 || first.Failed != 0 {
		t.Fatalf("first sweep: %+v", first)
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a brand-new server process state over the same store.
	s2, ts2 := newTestServer(t, storePath, 4)
	if s2.sess.Preloaded() != 8 {
		t.Fatalf("restarted service preloaded %d runs, want 8", s2.sess.Preloaded())
	}
	var second SweepResponse
	if code := postJSON(t, ts2.URL+"/v1/sweeps", sw, &second); code != http.StatusOK {
		t.Fatalf("resubmitted sweep status %d", code)
	}
	if second.Simulated != 0 || second.Cached != 8 || second.Failed != 0 {
		t.Fatalf("after restart: simulated=%d cached=%d failed=%d, want 0/8/0",
			second.Simulated, second.Cached, second.Failed)
	}
	// Byte-identity across lifetimes: same key, same recorded result.
	for i, run := range second.Runs {
		a, _ := json.Marshal(first.Runs[i].Result)
		b, _ := json.Marshal(run.Result)
		if first.Runs[i].Key != run.Key || !bytes.Equal(a, b) {
			t.Fatalf("run %d drifted across restart", i)
		}
	}
}

// TestServiceConcurrentClients hammers every endpoint from concurrent
// clients; run under -race this is the data-race acceptance test.
func TestServiceConcurrentClients(t *testing.T) {
	_, ts := newTestServer(t, filepath.Join(t.TempDir(), "store.jsonl"), 4)
	apps := []string{"sar", "hf", "astro"}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				req := harness.Request{App: apps[(g+i)%len(apps)], Scale: 0.02, Seed: 7}
				var run RunResponse
				if code := postJSON(t, ts.URL+"/v1/runs", req, &run); code != http.StatusOK {
					errs <- fmt.Errorf("client %d: run status %d (%s)", g, code, run.Error)
					return
				}
				if code := getJSON(t, ts.URL+"/v1/status", nil); code != http.StatusOK {
					errs <- fmt.Errorf("client %d: status %d", g, code)
					return
				}
				if code := getJSON(t, ts.URL+"/v1/runs/"+run.Key, nil); code != http.StatusOK {
					errs <- fmt.Errorf("client %d: get run status %d", g, code)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	var st StatusResponse
	getJSON(t, ts.URL+"/v1/status", &st)
	if st.Simulated != int64(len(apps)) {
		t.Fatalf("simulated %d distinct configs, want %d (dedup broke under concurrency)",
			st.Simulated, len(apps))
	}
}

// TestDoctorWorkerPoolWithQueuedRuns: runs queued for a worker slot are
// in flight, but the pool's semaphore caps the running ones, so a busy
// 1-worker service never fails the doctor's worker-pool check.
func TestDoctorWorkerPoolWithQueuedRuns(t *testing.T) {
	s, ts := newTestServer(t, filepath.Join(t.TempDir(), "store.jsonl"), 1)
	var wg sync.WaitGroup
	for _, app := range []string{"sar", "hf", "astro"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var run RunResponse
			if code := postJSON(t, ts.URL+"/v1/runs", harness.Request{App: app, Scale: 0.1, Seed: 7}, &run); code != http.StatusOK {
				t.Errorf("%s: run status %d (%s)", app, code, run.Error)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	maxInFlight, failed := 0, ""
	for polling := true; polling; {
		select {
		case <-done:
			polling = false
		default:
		}
		if n := s.Status().InFlight; n > maxInFlight {
			maxInFlight = n
		}
		for _, c := range s.Doctor().Checks {
			if c.Name == "worker-pool" && c.Status != "ok" && failed == "" {
				failed = c.Status + ": " + c.Detail
			}
		}
	}
	if failed != "" {
		t.Errorf("worker-pool check on a healthy service: %s", failed)
	}
	if maxInFlight < 2 {
		t.Errorf("saw at most %d run in flight; the check was never exercised with a queued run", maxInFlight)
	}
}

// TestServiceEventsStream asserts the SSE endpoint delivers run events.
func TestServiceEventsStream(t *testing.T) {
	_, ts := newTestServer(t, filepath.Join(t.TempDir(), "store.jsonl"), 2)
	resp, err := http.Get(ts.URL + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	events := make(chan Event, 16)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if data, ok := strings.CutPrefix(line, "data: "); ok {
				var ev Event
				if json.Unmarshal([]byte(data), &ev) == nil {
					events <- ev
				}
			}
		}
	}()
	var run RunResponse
	if code := postJSON(t, ts.URL+"/v1/runs", harness.Request{App: "sar", Scale: 0.02, Seed: 7}, &run); code != http.StatusOK {
		t.Fatalf("run status %d", code)
	}
	select {
	case ev := <-events:
		if ev.Key == "" {
			t.Fatalf("event %+v has no key", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no SSE event within 5s of a completed run")
	}
}

// TestServiceGracefulDrain asserts Serve finishes inflight runs on
// cancellation and closes the store afterwards.
func TestServiceGracefulDrain(t *testing.T) {
	storePath := filepath.Join(t.TempDir(), "store.jsonl")
	s, err := NewServer(Options{StorePath: storePath, Workers: 2, DrainTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	// Launch a run, then cancel the serve context while it may still be
	// inflight; the response must still arrive complete.
	type outcome struct {
		run RunResponse
		err error
	}
	runDone := make(chan outcome, 1)
	go func() {
		body, _ := json.Marshal(harness.Request{App: "sar", Scale: 0.02, Seed: 7})
		resp, err := http.Post(base+"/v1/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			runDone <- outcome{err: err}
			return
		}
		defer resp.Body.Close()
		var run RunResponse
		err = json.NewDecoder(resp.Body).Decode(&run)
		runDone <- outcome{run: run, err: err}
	}()
	time.Sleep(50 * time.Millisecond) // let the request reach the handler
	cancel()
	got := <-runDone
	if got.err != nil {
		t.Fatalf("drained run failed in transit: %v", got.err)
	}
	if got.run.Error != "" || got.run.Result == nil {
		t.Fatalf("drained run: %+v", got.run)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v", err)
	}
	// The drained run is durable: a fresh open sees it.
	j, err := harness.OpenJournal(storePath, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Len() != 1 {
		t.Fatalf("store holds %d runs after drain, want 1", j.Len())
	}
}

// TestServiceRequiresStorePath pins the constructor contract.
func TestServiceRequiresStorePath(t *testing.T) {
	if _, err := NewServer(Options{}); err == nil {
		t.Fatal("NewServer accepted empty StorePath")
	}
	if _, err := NewServer(Options{StorePath: t.TempDir()}); err == nil {
		t.Fatal("NewServer accepted a directory store path")
	}
}
