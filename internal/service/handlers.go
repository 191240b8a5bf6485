package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"sdds/internal/compilecache"
	"sdds/internal/diag"
	"sdds/internal/harness"
	"sdds/internal/shard"
	"sdds/internal/store"
	"sdds/internal/workloads"
)

// maxBodyBytes bounds request bodies; the largest legitimate sweep is a
// few thousand requests, well under this.
const maxBodyBytes = 8 << 20

// RunResponse is the wire form of one resolved run: the canonical
// request, its content key, whether it was served from cache (memory or
// the persistent store), and the result or the error.
type RunResponse struct {
	Key       string             `json:"key"`
	Request   harness.Request    `json:"request"`
	Cached    bool               `json:"cached"`
	ElapsedMS int64              `json:"elapsed_ms"`
	Result    *harness.RunRecord `json:"result,omitempty"`
	Error     string             `json:"error,omitempty"`
}

// SweepRequest describes a batch: the cross product of the listed
// dimensions (each defaulting to one canonical value — all six apps, the
// "default" policy, scheduling off, the unmodified cluster), unioned
// with any explicitly listed requests. Scale, Seed, Faults, and
// TimeoutMS apply to every cross-product cell.
type SweepRequest struct {
	Apps       []string          `json:"apps,omitempty"`
	Policies   []string          `json:"policies,omitempty"`
	Scheduling []bool            `json:"scheduling,omitempty"`
	Variants   []string          `json:"variants,omitempty"`
	Scale      float64           `json:"scale,omitempty"`
	Seed       int64             `json:"seed,omitempty"`
	Faults     string            `json:"faults,omitempty"`
	TimeoutMS  int64             `json:"timeout_ms,omitempty"`
	Requests   []harness.Request `json:"requests,omitempty"`
}

// expand renders the sweep as normalized requests, deduplicated by
// content key (first occurrence wins), in submission order.
func (sw SweepRequest) expand() ([]harness.Request, int, error) {
	apps := sw.Apps
	if len(apps) == 0 {
		apps = workloads.Names()
	}
	policies := sw.Policies
	if len(policies) == 0 {
		policies = []string{"default"}
	}
	scheduling := sw.Scheduling
	if len(scheduling) == 0 {
		scheduling = []bool{false}
	}
	variants := sw.Variants
	if len(variants) == 0 {
		variants = []string{""}
	}
	var raw []harness.Request
	for _, app := range apps {
		for _, pol := range policies {
			for _, sched := range scheduling {
				for _, v := range variants {
					raw = append(raw, harness.Request{
						App: app, Policy: pol, Scheduling: sched, Variant: v,
						Scale: sw.Scale, Seed: sw.Seed, Faults: sw.Faults, TimeoutMS: sw.TimeoutMS,
					})
				}
			}
		}
	}
	raw = append(raw, sw.Requests...)
	seen := make(map[string]bool)
	out := make([]harness.Request, 0, len(raw))
	for i, r := range raw {
		norm, err := r.Normalize()
		if err != nil {
			return nil, 0, fmt.Errorf("request %d (%s): %w", i, r.App, err)
		}
		key := norm.ContentKey()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, norm)
	}
	return out, len(raw), nil
}

// SweepResponse summarizes a resolved sweep.
type SweepResponse struct {
	// Total counts expanded submissions; Distinct the deduplicated runs.
	Total    int `json:"total"`
	Distinct int `json:"distinct"`
	// Cached/Simulated/Failed partition the distinct runs.
	Cached    int           `json:"cached"`
	Simulated int           `json:"simulated"`
	Failed    int           `json:"failed"`
	Runs      []RunResponse `json:"runs"`
}

// StatusResponse is the health surface behind GET /v1/status.
type StatusResponse struct {
	UptimeMS     int64    `json:"uptime_ms"`
	Workers      int      `json:"workers"`
	InFlight     int      `json:"inflight"`
	InFlightKeys []string `json:"inflight_keys,omitempty"`
	CacheEntries int      `json:"cache_entries"`
	Preloaded    int      `json:"preloaded"`
	Simulated    int64    `json:"simulated"`
	CacheHits    int64    `json:"cache_hits"`
	StoreEntries int      `json:"store_entries"`
	StoreAppends int64    `json:"store_appends"`
	StorePath    string   `json:"store_path"`
	Subscribers  int      `json:"subscribers"`
	// SetupGroups counts the distinct (app, scale, procs) pre-simulation
	// snapshots the session has built for sweep forking.
	SetupGroups int `json:"setup_groups"`
	// CompileCache reports the compile-artifact cache counters; absent
	// when the cache is disabled.
	CompileCache *compilecache.Stats `json:"compile_cache,omitempty"`
	// ArtifactPath is the persistent compile-artifact store; empty when
	// the cache is disabled.
	ArtifactPath string `json:"artifact_path,omitempty"`
	// Shards reports the active sharded sweep; absent when none was
	// submitted this lifetime.
	Shards *shard.Snapshot `json:"shards,omitempty"`
}

// Check is one doctor diagnostic: status is "ok", "warn", or "fail".
type Check struct {
	Name   string `json:"name"`
	Status string `json:"status"`
	Detail string `json:"detail"`
}

// TailRun is one recent store entry in the doctor report.
type TailRun struct {
	Key     string          `json:"key"`
	Request harness.Request `json:"request"`
}

// DoctorResponse is the diagnostic surface behind GET /v1/doctor.
type DoctorResponse struct {
	Status string       `json:"status"`
	Checks []Check      `json:"checks"`
	Store  store.Report `json:"store"`
	Tail   []TailRun    `json:"tail,omitempty"`
	// Bundles lists the most recent diagnostics bundles (newest first);
	// absent when capture is disabled.
	Bundles []BundleSummary `json:"bundles,omitempty"`
	Metrics string          `json:"metrics"`
}

// BundleSummary is one diagnostics bundle in listings: identity and
// trigger context without the per-file manifest detail.
type BundleSummary struct {
	ID            string `json:"id"`
	Trigger       string `json:"trigger"`
	Key           string `json:"key,omitempty"`
	Error         string `json:"error,omitempty"`
	ElapsedMS     int64  `json:"elapsed_ms,omitempty"`
	CreatedUnixMS int64  `json:"created_unix_ms"`
	Files         int    `json:"files"`
	Path          string `json:"path"`
}

func newBundleSummary(b diag.BundleInfo) BundleSummary {
	return BundleSummary{
		ID:            b.ID,
		Trigger:       b.Manifest.Trigger,
		Key:           b.Manifest.Key,
		Error:         b.Manifest.Error,
		ElapsedMS:     b.Manifest.ElapsedMS,
		CreatedUnixMS: b.Manifest.CreatedUnixMS,
		Files:         len(b.Manifest.Files),
		Path:          b.Path,
	}
}

// BundleRequest is the POST /v1/bundles body: the run to capture, named
// either by content key (a run this service has seen or stored) or by a
// full request.
type BundleRequest struct {
	Key     string           `json:"key,omitempty"`
	Request *harness.Request `json:"request,omitempty"`
}

// BundleResponse answers POST /v1/bundles and GET /v1/bundles/{id}.
type BundleResponse struct {
	ID       string        `json:"id"`
	Path     string        `json:"path"`
	Manifest diag.Manifest `json:"manifest"`
}

// Event is one run-progress event on the GET /v1/events SSE stream,
// mirroring harness.Progress.
type Event struct {
	Key       string `json:"key"`
	Done      int    `json:"done"`
	Total     int    `json:"total"`
	Hits      int    `json:"hits"`
	Hit       bool   `json:"hit"`
	ElapsedMS int64  `json:"elapsed_ms"`
	Err       string `json:"err,omitempty"`
	// FromJournal marks a hit served from a result persisted by an
	// earlier process lifetime.
	FromJournal bool `json:"from_journal,omitempty"`
	// CompileProv names where a scheduled run's compile pass came from
	// ("compiled", "memo", "restored", "uncacheable").
	CompileProv string `json:"compile_prov,omitempty"`
	// Shard/ShardEvent/Worker/Attempts describe a shard lifecycle
	// transition ("leased", "completed", "duplicate", "requeued",
	// "poisoned") on a sharded sweep; absent on plain run events.
	Shard      string `json:"shard,omitempty"`
	ShardEvent string `json:"shard_event,omitempty"`
	Worker     string `json:"worker,omitempty"`
	Attempts   int    `json:"attempts,omitempty"`
}

// errorResponse is the uniform JSON error body.
type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the /v1 API surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleRun)
	mux.HandleFunc("POST /v1/sweeps", s.handleSweep)
	mux.HandleFunc("GET /v1/runs/{key}", s.handleGetRun)
	mux.HandleFunc("GET /v1/events", s.handleEvents)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("GET /v1/doctor", s.handleDoctor)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/shards/sweeps", s.handleSubmitShards)
	mux.HandleFunc("POST /v1/shards/lease", s.handleShardLease)
	mux.HandleFunc("POST /v1/shards/renew", s.handleShardRenew)
	mux.HandleFunc("POST /v1/shards/complete", s.handleShardComplete)
	mux.HandleFunc("GET /v1/shards/status", s.handleShardStatus)
	mux.HandleFunc("POST /v1/bundles", s.handleCaptureBundle)
	mux.HandleFunc("GET /v1/bundles", s.handleListBundles)
	mux.HandleFunc("GET /v1/bundles/{id}", s.handleGetBundle)
	return mux
}

// writeJSON renders v with status; encode errors past the header are
// unrecoverable mid-stream and ignored.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// decodeJSON strictly decodes the request body into v: unknown fields
// are rejected (a misspelled field must not silently become a default).
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// handleRun resolves POST /v1/runs: one canonical request, answered
// synchronously (from cache, the persistent store, or a fresh
// simulation under the worker pool).
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req harness.Request
	if err := decodeJSON(r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	norm, err := req.Normalize()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	resp := s.runOne(r.Context(), norm)
	status := http.StatusOK
	if resp.Error != "" {
		status = http.StatusInternalServerError
	}
	writeJSON(w, status, resp)
}

// handleSweep resolves POST /v1/sweeps: expand, validate everything
// before simulating anything, dedup against the store and cache, then
// fan the distinct runs out over the worker pool.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var sw SweepRequest
	if err := decodeJSON(r, &sw); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	reqs, total, err := sw.expand()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	s.regMu.Lock()
	s.sweeps.Inc()
	s.regMu.Unlock()

	resp := SweepResponse{Total: total, Distinct: len(reqs), Runs: make([]RunResponse, len(reqs))}
	// One goroutine per distinct run, gated by the service worker bound;
	// the session's own pool bounds actual simulations, so this gate only
	// caps handler-side goroutines.
	sem := make(chan struct{}, s.opts.Workers)
	var wg sync.WaitGroup
	for i, rq := range reqs {
		wg.Add(1)
		go func(i int, rq harness.Request) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			resp.Runs[i] = s.runOne(r.Context(), rq)
		}(i, rq)
	}
	wg.Wait()
	for _, run := range resp.Runs {
		switch {
		case run.Error != "":
			resp.Failed++
		case run.Cached:
			resp.Cached++
		default:
			resp.Simulated++
		}
	}
	status := http.StatusOK
	if resp.Failed > 0 {
		status = http.StatusInternalServerError
	}
	writeJSON(w, status, resp)
}

// handleGetRun resolves GET /v1/runs/{key}: 202 while the session has the
// key in flight (whichever path submitted it), 200 with the stored result
// once resolved (this process or any earlier one), 404 for an unknown key.
func (s *Server) handleGetRun(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	// In flight is checked first: a run leaves the session's in-flight
	// list by resolving (or, cancelled, by being dropped), so a key no
	// longer in flight is cached unless its submitter gave up.
	for _, req := range s.sess.InFlight() {
		if req.ContentKey() == key {
			writeJSON(w, http.StatusAccepted, RunResponse{Key: key, Request: req})
			return
		}
	}
	s.mu.Lock()
	req, known := s.seen[key]
	s.mu.Unlock()
	if known {
		if res, rerr, ok := s.sess.Cached(req); ok {
			resp := RunResponse{Key: key, Request: req, Cached: true}
			if rerr != nil {
				resp.Error = rerr.Error()
			} else {
				rec := harness.NewRunRecord(res)
				resp.Result = &rec
			}
			writeJSON(w, http.StatusOK, resp)
			return
		}
	}
	// Not resolved in this process: the persistent store still answers for
	// runs recorded by earlier lifetimes.
	sreq, res, ok, err := s.journal.Lookup(key)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown run key " + key})
		return
	}
	rec := harness.NewRunRecord(res)
	writeJSON(w, http.StatusOK, RunResponse{Key: key, Request: sreq, Cached: true, Result: &rec})
}

// handleEvents serves the SSE progress stream: one "data:" line per run
// event, until the client disconnects or the service shuts down.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "streaming unsupported"})
		return
	}
	ch, cancel := s.hub.subscribe()
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, ": stream open\n\n")
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.hub.done:
			return
		case msg := <-ch:
			if _, err := fmt.Fprintf(w, "data: %s\n\n", msg); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Status())
}

func (s *Server) handleDoctor(w http.ResponseWriter, r *http.Request) {
	d := s.Doctor()
	status := http.StatusOK
	if d.Status == "fail" {
		status = http.StatusInternalServerError
	}
	writeJSON(w, status, d)
}

// handleMetrics serves the service registry in Prometheus text form.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, s.metricsText())
}

// handleCaptureBundle resolves POST /v1/bundles: a manual diagnostics
// capture of one run, named by content key or full request. 503 when the
// service runs without a capture directory, 404 for an unknown key.
func (s *Server) handleCaptureBundle(w http.ResponseWriter, r *http.Request) {
	if s.diag == nil {
		writeJSON(w, http.StatusServiceUnavailable,
			errorResponse{Error: "diagnostics capture is disabled (start sddsd with -capture-dir)"})
		return
	}
	var br BundleRequest
	if err := decodeJSON(r, &br); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	var req harness.Request
	switch {
	case br.Key != "" && br.Request != nil:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "give key or request, not both"})
		return
	case br.Key != "":
		s.mu.Lock()
		seen, known := s.seen[br.Key]
		s.mu.Unlock()
		if known {
			req = seen
			break
		}
		sreq, _, found, err := s.journal.Lookup(br.Key)
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
			return
		}
		if !found {
			writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown run key " + br.Key})
			return
		}
		req = sreq
	case br.Request != nil:
		norm, err := br.Request.Normalize()
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		req = norm
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "give a run key or a request to capture"})
		return
	}
	info, err := s.CaptureBundle(req)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusCreated, BundleResponse{
		ID: info.ID, Path: info.Path, Manifest: info.Manifest,
	})
}

// handleListBundles serves GET /v1/bundles: every bundle, newest first.
func (s *Server) handleListBundles(w http.ResponseWriter, r *http.Request) {
	if s.diag == nil {
		writeJSON(w, http.StatusServiceUnavailable,
			errorResponse{Error: "diagnostics capture is disabled (start sddsd with -capture-dir)"})
		return
	}
	infos, err := s.diag.List()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	out := make([]BundleSummary, 0, len(infos))
	for _, b := range infos {
		out = append(out, newBundleSummary(b))
	}
	writeJSON(w, http.StatusOK, out)
}

// handleGetBundle serves GET /v1/bundles/{id}: the bundle's manifest, by
// full ID or unique prefix.
func (s *Server) handleGetBundle(w http.ResponseWriter, r *http.Request) {
	if s.diag == nil {
		writeJSON(w, http.StatusServiceUnavailable,
			errorResponse{Error: "diagnostics capture is disabled (start sddsd with -capture-dir)"})
		return
	}
	info, err := s.diag.Find(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, BundleResponse{
		ID: info.ID, Path: info.Path, Manifest: info.Manifest,
	})
}
