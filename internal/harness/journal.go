package harness

import (
	"encoding/json"
	"fmt"
	"log/slog"

	"sdds/internal/cluster"
	"sdds/internal/metrics"
	"sdds/internal/power"
	"sdds/internal/probe"
	"sdds/internal/sim"
	"sdds/internal/store"
)

// RunRecord is the portable, JSON-serializable mirror of cluster.Result:
// what the journal persists and the sddsd service returns. The compiler
// output is deliberately not recorded (it is large and no experiment
// reads it from cached runs); a restored result therefore carries
// Compile == nil.
type RunRecord struct {
	ExecTimeUS         int64                      `json:"exec_time_us"`
	EnergyJ            float64                    `json:"energy_j"`
	NodeEnergyJ        []float64                  `json:"node_energy_j,omitempty"`
	Idle               *metrics.HistogramSnapshot `json:"idle,omitempty"`
	BufferHits         int64                      `json:"buffer_hits"`
	BufferMisses       int64                      `json:"buffer_misses"`
	PrefetchIssued     int64                      `json:"prefetch_issued"`
	StorageCacheHits   int64                      `json:"storage_cache_hits"`
	StorageCacheMisses int64                      `json:"storage_cache_misses"`
	AgentMoved         int64                      `json:"agent_moved"`
	AgentIssued        int64                      `json:"agent_issued"`
	AgentBlocked       int64                      `json:"agent_blocked"`
	AgentDeferred      int64                      `json:"agent_deferred"`
	DiskRequests       int64                      `json:"disk_requests"`
	SpinUps            int64                      `json:"spin_ups"`
	RPMShifts          int64                      `json:"rpm_shifts"`
	Metrics            []probe.Metric             `json:"metrics,omitempty"`
	Faults             *cluster.FaultStats        `json:"faults,omitempty"`
}

// NewRunRecord converts a completed run's result to its portable form.
func NewRunRecord(res *cluster.Result) RunRecord {
	rr := RunRecord{
		ExecTimeUS:         int64(res.ExecTime),
		EnergyJ:            res.EnergyJ,
		NodeEnergyJ:        res.NodeEnergyJ,
		BufferHits:         res.BufferHits,
		BufferMisses:       res.BufferMisses,
		PrefetchIssued:     res.PrefetchIssued,
		StorageCacheHits:   res.StorageCacheHits,
		StorageCacheMisses: res.StorageCacheMisses,
		AgentMoved:         res.AgentMoved,
		AgentIssued:        res.AgentIssued,
		AgentBlocked:       res.AgentBlocked,
		AgentDeferred:      res.AgentDeferred,
		DiskRequests:       res.DiskRequests,
		SpinUps:            res.SpinUps,
		RPMShifts:          res.RPMShifts,
		Metrics:            res.Metrics,
		Faults:             res.Faults,
	}
	if res.Idle != nil {
		rr.Idle = res.Idle.Snapshot()
	}
	return rr
}

// Restore converts the record back into a full result under the request
// it was recorded for (the request supplies Program/Policy/Scheduling).
// The request must be normalized — records are only ever stored under
// canonical requests, so a journal round-trip preserves the invariant.
func (rr RunRecord) Restore(req Request) (*cluster.Result, error) {
	kind, err := power.ParseKind(req.Policy)
	if err != nil {
		return nil, err
	}
	res := &cluster.Result{
		Program:            req.App,
		Policy:             kind,
		Scheduling:         req.Scheduling,
		ExecTime:           sim.Duration(rr.ExecTimeUS),
		EnergyJ:            rr.EnergyJ,
		NodeEnergyJ:        rr.NodeEnergyJ,
		BufferHits:         rr.BufferHits,
		BufferMisses:       rr.BufferMisses,
		PrefetchIssued:     rr.PrefetchIssued,
		StorageCacheHits:   rr.StorageCacheHits,
		StorageCacheMisses: rr.StorageCacheMisses,
		AgentMoved:         rr.AgentMoved,
		AgentIssued:        rr.AgentIssued,
		AgentBlocked:       rr.AgentBlocked,
		AgentDeferred:      rr.AgentDeferred,
		DiskRequests:       rr.DiskRequests,
		SpinUps:            rr.SpinUps,
		RPMShifts:          rr.RPMShifts,
		Metrics:            rr.Metrics,
		Faults:             rr.Faults,
	}
	if rr.Idle != nil {
		h, err := metrics.FromSnapshot(rr.Idle)
		if err != nil {
			return nil, err
		}
		res.Idle = h
	}
	return res, nil
}

// storedRun is the store value under a request's content key: the full
// canonical request (so entries are self-describing and listable) plus
// the recorded result.
type storedRun struct {
	Request Request   `json:"request"`
	Result  RunRecord `json:"result"`
}

// Journal is the crash-safe record of completed cluster runs: a typed
// view over a content-addressed store, keyed by Request.ContentKey. Every
// append is fsynced, so a killed sweep loses at most the run being
// written. Opened in resume mode it reloads every intact entry — a torn
// trailing line (the kill point) is dropped — and NewSession preloads
// the entries into the run cache, so a re-run completes only the missing
// configurations. The same file backs the sddsd service's persistent
// result store.
type Journal struct {
	s *store.Store
}

// OpenJournal opens (or creates) the journal at path. With resume=false
// any existing journal is truncated; with resume=true its intact entries
// are loaded for NewSession to preload, and appends continue after them.
// A path naming a directory is rejected.
func OpenJournal(path string, resume bool) (*Journal, error) {
	return OpenJournalWith(path, resume, nil)
}

// OpenJournalWith is OpenJournal with structured logging: resume recovery
// (entries loaded, torn tail dropped) is reported on log when non-nil.
func OpenJournalWith(path string, resume bool, log *slog.Logger) (*Journal, error) {
	s, err := store.OpenWith(path, !resume, log)
	if err != nil {
		return nil, fmt.Errorf("harness: journal: %w", err)
	}
	return &Journal{s: s}, nil
}

// Len reports how many distinct runs the journal holds.
func (j *Journal) Len() int { return j.s.Len() }

// Appends reports how many runs this process has appended.
func (j *Journal) Appends() int64 { return j.s.Appends() }

// Path returns the journal file path.
func (j *Journal) Path() string { return j.s.Path() }

// Store exposes the backing content-addressed store (for integrity scans
// and raw listing; the service's /v1/doctor uses it).
func (j *Journal) Store() *store.Store { return j.s }

// append records one completed run under its content key and fsyncs,
// making it durable before the session reports the run finished. key
// must be canonical (session memo keys are).
func (j *Journal) append(key Request, res *cluster.Result) error {
	err := j.s.Put(key.ContentKey(), storedRun{Request: key.canonical(), Result: NewRunRecord(res)})
	if err != nil {
		return fmt.Errorf("harness: journal: %w", err)
	}
	return nil
}

// AppendRecord durably stores an externally-produced run record — one a
// sharded worker simulated and shipped back over the wire — under the
// request's content key, reporting whether it was newly added. False
// with a nil error is the dedup no-op: an identical record was already
// stored (the double-completion case). A record that differs from the
// stored bytes is an error, because identical requests must produce
// identical results — a mismatch here is the determinism invariant
// caught broken, not a conflict to resolve.
func (j *Journal) AppendRecord(req Request, rec RunRecord) (bool, error) {
	norm, err := req.Normalize()
	if err != nil {
		return false, err
	}
	added, err := j.s.Add(norm.ContentKey(), storedRun{Request: norm.canonical(), Result: rec})
	if err != nil {
		return false, fmt.Errorf("harness: journal: %w", err)
	}
	return added, nil
}

// Lookup returns the stored request and result under a content key
// (Request.ContentKey form), reporting whether it exists.
func (j *Journal) Lookup(key string) (Request, *cluster.Result, bool, error) {
	var sr storedRun
	ok, err := j.s.Get(key, &sr)
	if err != nil || !ok {
		return Request{}, nil, ok, err
	}
	res, err := sr.Result.Restore(sr.Request)
	if err != nil {
		return Request{}, nil, true, fmt.Errorf("harness: journal: key %s: %w", key, err)
	}
	return sr.Request, res, true, nil
}

// Tail returns the last n stored requests in append order.
func (j *Journal) Tail(n int) []Request {
	keys := j.s.Tail(n)
	out := make([]Request, 0, len(keys))
	for _, k := range keys {
		var sr storedRun
		if ok, err := j.s.Get(k, &sr); err == nil && ok {
			out = append(out, sr.Request)
		}
	}
	return out
}

// Close flushes and closes the journal file. Further appends fail.
func (j *Journal) Close() error { return j.s.Close() }

// each calls fn with every stored run, restored, in store order. Entries
// that fail to decode or restore are skipped (they will simply be
// re-simulated).
func (j *Journal) each(fn func(Request, *cluster.Result)) {
	j.s.Each(func(key string, raw json.RawMessage) error {
		var sr storedRun
		if err := json.Unmarshal(raw, &sr); err != nil {
			return nil
		}
		res, err := sr.Result.Restore(sr.Request)
		if err != nil {
			return nil
		}
		fn(sr.Request, res)
		return nil
	})
}
