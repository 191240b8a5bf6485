// Package diag is the simulator's black box: an always-on diagnostics
// capture subsystem that assembles a self-contained, content-addressed
// bundle for any run or sweep — the failing or slow run's canonical
// request (for exact reproduction), the probe flight-recorder dump as a
// Chrome trace, the metrics registry snapshot, the journal tail, fault
// and compile-cache statistics, heap and goroutine profiles, and build
// info — under a MANIFEST.json carrying an integrity hash per file.
//
// Capture is triggered automatically by the harness session (run error,
// per-run timeout, worker panic, slow-run watchdog) and on demand by the
// CLIs and the sddsd service. It runs entirely off the simulation hot
// path — a run's result is fully collected before capture begins — so
// capture-on and capture-off runs are bit-identical. The package is
// deliberately independent of the harness: callers hand it serializable
// values (requests, fault stats, journal tails) as opaque JSON payloads.
//
// A bundle is a directory named bundle-<id> (id = the first 12 hex digits
// of the SHA-256 over the sorted per-file hashes). The cmd/sddsdiag
// inspector validates bundles and prints a triage summary; Validate is the
// shared half of that.
package diag

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"sdds/internal/probe"
)

// ManifestVersion is the bundle layout version recorded in MANIFEST.json.
const ManifestVersion = 1

// ManifestName is the one file every bundle must contain.
const ManifestName = "MANIFEST.json"

// Triggers: what caused a capture. The manifest records one of these.
const (
	TriggerError   = "error"   // the run failed
	TriggerTimeout = "timeout" // the per-run deadline fired
	TriggerPanic   = "panic"   // a worker panicked inside the run
	TriggerSlow    = "slow"    // the slow-run watchdog flagged the run
	TriggerManual  = "manual"  // requested via CLI flag or service API
	TriggerShard   = "shard"   // a sharded sweep poisoned a shard (retries exhausted)
)

// Options configures a Recorder.
type Options struct {
	// Dir is the capture directory; bundles are created inside it. It is
	// created (with parents) if missing. Required.
	Dir string
	// MaxBundles bounds retention: after each capture, the oldest bundles
	// beyond this count are deleted. ≤0 means the default (32).
	MaxBundles int
	// SlowMultiplier arms the slow-run watchdog: a run slower than
	// multiplier × the rolling median of recent runs triggers a capture.
	// ≤0 leaves the watchdog disarmed.
	SlowMultiplier float64
	// MinSamples is the number of completed runs the watchdog needs
	// before issuing slow verdicts (default 8).
	MinSamples int
	// Log, when non-nil, receives structured capture events.
	Log *slog.Logger
}

// Recorder owns one capture directory and its retention policy. Methods
// are safe for concurrent use (harness workers capture concurrently). A
// nil *Recorder is the disabled state: every method is a no-op.
type Recorder struct {
	opts Options
	log  *slog.Logger
	wd   *Watchdog

	mu        sync.Mutex
	captured  int64
	failures  int64
	lastID    string
	lastError string
}

// NewRecorder creates (if needed) the capture directory and returns a
// recorder over it.
func NewRecorder(o Options) (*Recorder, error) {
	if o.Dir == "" {
		return nil, fmt.Errorf("diag: Options.Dir is required")
	}
	if o.MaxBundles <= 0 {
		o.MaxBundles = 32
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("diag: %w", err)
	}
	r := &Recorder{opts: o, log: o.Log}
	if o.SlowMultiplier > 0 {
		r.wd = NewWatchdog(o.SlowMultiplier, o.MinSamples)
	}
	return r, nil
}

// Dir returns the capture directory ("" on a nil recorder).
func (r *Recorder) Dir() string {
	if r == nil {
		return ""
	}
	return r.opts.Dir
}

// Watchdog returns the recorder's slow-run watchdog (nil when disarmed or
// on a nil recorder).
func (r *Recorder) Watchdog() *Watchdog {
	if r == nil {
		return nil
	}
	return r.wd
}

// Stats reports lifetime capture counts: bundles written and captures
// that themselves failed.
func (r *Recorder) Stats() (captured, failures int64) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.captured, r.failures
}

// Capture describes one capture request: the triggering run's identity
// and whatever evidence the caller has. Every field but Trigger and Key
// is optional — absent evidence simply leaves its file out of the bundle.
type Capture struct {
	// Trigger is one of the Trigger* constants.
	Trigger string
	// Key is the run's human-readable canonical key (Request.Key form).
	Key string
	// ContentKey is the run's content address (Request.ContentKey form).
	ContentKey string
	// Err is the run error, recorded in error.txt and the manifest.
	Err error
	// Request is the canonical run submission, marshaled to request.json.
	// Resubmitting it must reproduce the run exactly.
	Request any
	// Result is the portable run result (harness.RunRecord form),
	// marshaled to result.json; nil for failed runs.
	Result any
	// Metrics is the run's registry snapshot, marshaled to metrics.json.
	Metrics []probe.Metric
	// Faults is the run's fault/degradation block, marshaled to
	// faults.json.
	Faults any
	// CompileCache is the compile-cache counter snapshot, marshaled to
	// compile_cache.json.
	CompileCache any
	// JournalTail is the recent-journal listing, marshaled to
	// journal_tail.json.
	JournalTail any
	// Trace, when non-nil, writes the probe's Chrome trace-event dump to
	// trace.json.
	Trace func(io.Writer) error
	// ElapsedMS and MedianMS record the run's wall time and the
	// watchdog's rolling median at capture time (0 when unknown).
	ElapsedMS int64
	MedianMS  int64
}

// FileEntry is one bundle file in the manifest: its size and SHA-256.
type FileEntry struct {
	Name   string `json:"name"`
	Bytes  int64  `json:"bytes"`
	SHA256 string `json:"sha256"`
}

// Manifest is the bundle's self-description: trigger context plus an
// integrity entry per file. The bundle ID is the first 12 hex digits of
// the SHA-256 over "name:hash\n" lines sorted by name — equal content
// always produces the same bundle, so repeated captures dedup.
type Manifest struct {
	Version       int         `json:"version"`
	ID            string      `json:"id"`
	Trigger       string      `json:"trigger"`
	Key           string      `json:"key,omitempty"`
	ContentKey    string      `json:"content_key,omitempty"`
	Error         string      `json:"error,omitempty"`
	ElapsedMS     int64       `json:"elapsed_ms,omitempty"`
	MedianMS      int64       `json:"median_ms,omitempty"`
	CreatedUnixMS int64       `json:"created_unix_ms"`
	GoVersion     string      `json:"go_version"`
	Files         []FileEntry `json:"files"`
}

// BundleInfo describes one captured bundle on disk.
type BundleInfo struct {
	ID       string   `json:"id"`
	Path     string   `json:"path"`
	Manifest Manifest `json:"manifest"`
}

// bundleID derives the content address from the manifest's file entries.
func bundleID(files []FileEntry) string {
	lines := make([]string, 0, len(files))
	for _, f := range files {
		lines = append(lines, f.Name+":"+f.SHA256+"\n")
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		io.WriteString(h, l)
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// BundleDirName renders the directory name for a bundle ID.
func BundleDirName(id string) string { return "bundle-" + id }

// Capture assembles one bundle from c. It never panics and reports any
// assembly failure as an error without leaving partial bundles behind
// (assembly happens in a hidden temp directory, renamed into place only
// once the manifest is written). A capture whose content matches an
// existing bundle dedups onto it.
func (r *Recorder) Capture(c Capture) (*BundleInfo, error) {
	if r == nil {
		return nil, nil
	}
	info, err := r.capture(c)
	r.mu.Lock()
	if err != nil {
		r.failures++
		r.lastError = err.Error()
	} else {
		r.captured++
		r.lastID = info.ID
	}
	r.mu.Unlock()
	if r.log != nil {
		if err != nil {
			r.log.Error("diag capture failed", "trigger", c.Trigger, "request_key", c.Key, "err", err.Error())
		} else {
			r.log.Info("diag bundle captured", "trigger", c.Trigger, "request_key", c.Key,
				"bundle", info.ID, "path", info.Path)
		}
	}
	return info, err
}

func (r *Recorder) capture(c Capture) (*BundleInfo, error) {
	if c.Trigger == "" {
		c.Trigger = TriggerManual
	}
	tmp, err := os.MkdirTemp(r.opts.Dir, ".capture-")
	if err != nil {
		return nil, fmt.Errorf("diag: %w", err)
	}
	defer os.RemoveAll(tmp) // no-op once renamed into place

	var entries []FileEntry
	add := func(name string, write func(io.Writer) error) error {
		f, err := os.Create(filepath.Join(tmp, name))
		if err != nil {
			return err
		}
		h := sha256.New()
		cw := &countWriter{w: io.MultiWriter(f, h)}
		werr := write(cw)
		cerr := f.Close()
		if werr != nil {
			return fmt.Errorf("%s: %w", name, werr)
		}
		if cerr != nil {
			return fmt.Errorf("%s: %w", name, cerr)
		}
		entries = append(entries, FileEntry{
			Name:   name,
			Bytes:  cw.n,
			SHA256: hex.EncodeToString(h.Sum(nil)),
		})
		return nil
	}
	addJSON := func(name string, v any) error {
		return add(name, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(v)
		})
	}

	if c.Request != nil {
		if err := addJSON("request.json", c.Request); err != nil {
			return nil, err
		}
	}
	if c.Err != nil {
		if err := add("error.txt", func(w io.Writer) error {
			_, werr := io.WriteString(w, c.Err.Error()+"\n")
			return werr
		}); err != nil {
			return nil, err
		}
	}
	if c.Result != nil {
		if err := addJSON("result.json", c.Result); err != nil {
			return nil, err
		}
	}
	if len(c.Metrics) > 0 {
		if err := addJSON("metrics.json", c.Metrics); err != nil {
			return nil, err
		}
	}
	if c.Faults != nil {
		if err := addJSON("faults.json", c.Faults); err != nil {
			return nil, err
		}
	}
	if c.CompileCache != nil {
		if err := addJSON("compile_cache.json", c.CompileCache); err != nil {
			return nil, err
		}
	}
	if c.JournalTail != nil {
		if err := addJSON("journal_tail.json", c.JournalTail); err != nil {
			return nil, err
		}
	}
	if c.Trace != nil {
		if err := add("trace.json", c.Trace); err != nil {
			return nil, err
		}
	}
	for _, name := range []string{"heap", "goroutine"} {
		if err := add(name+".pprof", func(w io.Writer) error {
			return pprof.Lookup(name).WriteTo(w, 0)
		}); err != nil {
			return nil, err
		}
	}
	if err := add("buildinfo.txt", func(w io.Writer) error {
		if bi, ok := debug.ReadBuildInfo(); ok {
			if _, werr := io.WriteString(w, bi.String()); werr != nil {
				return werr
			}
		}
		_, werr := fmt.Fprintf(w, "go: %s\nos/arch: %s/%s\n",
			runtime.Version(), runtime.GOOS, runtime.GOARCH)
		return werr
	}); err != nil {
		return nil, err
	}

	id := bundleID(entries)
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	man := Manifest{
		Version:       ManifestVersion,
		ID:            id,
		Trigger:       c.Trigger,
		Key:           c.Key,
		ContentKey:    c.ContentKey,
		ElapsedMS:     c.ElapsedMS,
		MedianMS:      c.MedianMS,
		CreatedUnixMS: time.Now().UnixMilli(), //sddsvet:ignore detflow -- capture timestamp: bundle metadata, never simulation input
		GoVersion:     runtime.Version(),
		Files:         entries,
	}
	if c.Err != nil {
		man.Error = c.Err.Error()
	}
	manData, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("diag: manifest: %w", err)
	}
	manData = append(manData, '\n')
	if err := os.WriteFile(filepath.Join(tmp, ManifestName), manData, 0o644); err != nil {
		return nil, fmt.Errorf("diag: manifest: %w", err)
	}

	final := filepath.Join(r.opts.Dir, BundleDirName(id))
	info := &BundleInfo{ID: id, Path: final, Manifest: man}
	if _, err := os.Stat(final); err == nil {
		// Identical content already captured: dedup onto the existing
		// bundle (its manifest may differ in timestamp; keep the original).
		if existing, rerr := readManifestDir(final); rerr == nil {
			info.Manifest = existing
		}
	} else if err := os.Rename(tmp, final); err != nil {
		return nil, fmt.Errorf("diag: %w", err)
	}
	if err := r.prune(); err != nil {
		return nil, err
	}
	return info, nil
}

// prune deletes the oldest bundles beyond the retention bound.
func (r *Recorder) prune() error {
	infos, err := r.List()
	if err != nil {
		return err
	}
	// List returns newest-first; everything past MaxBundles goes.
	for _, b := range infos[min(len(infos), r.opts.MaxBundles):] {
		if err := os.RemoveAll(b.Path); err != nil {
			return fmt.Errorf("diag: prune: %w", err)
		}
	}
	return nil
}

// List returns the capture directory's bundles, newest first (by manifest
// creation time, then ID). Directories without a readable manifest are
// skipped — half-assembled temp dirs never surface.
func (r *Recorder) List() ([]BundleInfo, error) {
	if r == nil {
		return nil, nil
	}
	return ListDir(r.opts.Dir)
}

// Find resolves a bundle by full ID or unique prefix.
func (r *Recorder) Find(id string) (*BundleInfo, error) {
	if r == nil {
		return nil, fmt.Errorf("diag: capture disabled")
	}
	infos, err := r.List()
	if err != nil {
		return nil, err
	}
	var match *BundleInfo
	for i := range infos {
		if infos[i].ID == id {
			return &infos[i], nil
		}
		if strings.HasPrefix(infos[i].ID, id) {
			if match != nil {
				return nil, fmt.Errorf("diag: bundle id %q is ambiguous", id)
			}
			match = &infos[i]
		}
	}
	if match == nil {
		return nil, fmt.Errorf("diag: no bundle %q", id)
	}
	return match, nil
}

// ListDir lists the bundles under any capture directory, newest first.
func ListDir(dir string) ([]BundleInfo, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("diag: %w", err)
	}
	var out []BundleInfo
	for _, e := range ents {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "bundle-") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		man, err := readManifestDir(path)
		if err != nil {
			continue
		}
		out = append(out, BundleInfo{ID: man.ID, Path: path, Manifest: man})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Manifest.CreatedUnixMS != out[j].Manifest.CreatedUnixMS {
			return out[i].Manifest.CreatedUnixMS > out[j].Manifest.CreatedUnixMS
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}

// readManifestDir parses a bundle directory's manifest.
func readManifestDir(dir string) (Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return Manifest{}, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("diag: %s: %w", dir, err)
	}
	return m, nil
}

// countWriter counts bytes through to w.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
