// Package store implements the persistent content-addressed result store
// behind the harness journal and the sddsd service: an append-only JSONL
// file mapping canonical content keys to JSON values, fsynced per append
// so a killed process loses at most the line being written. Opening an
// existing store loads its intact prefix and truncates a torn trailing
// line, so results survive restarts and re-submitting an already-stored
// key is a pure lookup.
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"sync"
)

// line is the on-disk record: one JSON object per line.
type line struct {
	Key   string          `json:"key"`
	Value json.RawMessage `json:"value"`
}

// Store is a crash-safe key→JSON map backed by one append-only file.
// Methods are safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	values  map[string]json.RawMessage
	order   []string // keys in append order, for Tail/Each
	appends int64
}

// Open opens (or creates) the store at path. With truncate=true any
// existing content is discarded; otherwise the intact prefix is loaded
// and a torn trailing line (a crash's kill point) is dropped before
// appends continue after it. A path naming a directory is rejected.
func Open(path string, truncate bool) (*Store, error) {
	return OpenWith(path, truncate, nil)
}

// OpenWith is Open with structured logging: when log is non-nil, resume
// recovery (entries loaded, torn tail dropped) is reported on it — the
// torn-tail truncation is the one silent data repair in the whole
// pipeline, and a crashed sweep's operator should see it happen.
func OpenWith(path string, truncate bool, log *slog.Logger) (*Store, error) {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		return nil, fmt.Errorf("store: path %s is a directory, want a file", path)
	}
	s := &Store{path: path, values: make(map[string]json.RawMessage)}
	if truncate {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		s.f = f
		return s, nil
	}
	lines, validBytes, err := loadLines(path)
	if err != nil {
		return nil, err
	}
	if log != nil {
		if fi, err := os.Stat(path); err == nil && fi.Size() > validBytes {
			log.Warn("store dropping torn tail", "path", path,
				"torn_bytes", fi.Size()-validBytes, "valid_bytes", validBytes)
		}
		if len(lines) > 0 {
			log.Info("store resumed", "path", path, "entries", len(lines), "bytes", validBytes)
		}
	}
	for _, l := range lines {
		if _, dup := s.values[l.Key]; !dup {
			s.order = append(s.order, l.Key)
		}
		s.values[l.Key] = l.Value
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	// The store must stay one-JSON-object-per-line: cut the torn tail
	// before appending after it.
	if err := f.Truncate(validBytes); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	s.f = f
	return s, nil
}

// loadLines parses the intact prefix of a store file: every complete,
// well-formed line. A final line without its newline is torn even when it
// parses: its Put never returned, and the bytes an append wrote after it
// would merge into it. It returns the records and the byte length of the
// valid prefix. A missing file is an empty store.
func loadLines(path string) ([]line, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	var (
		lines []line
		valid int64
	)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	sc.Split(scanTerminated)
	for sc.Scan() {
		raw := sc.Bytes()
		var l line
		if err := json.Unmarshal(raw, &l); err != nil || l.Key == "" {
			break // torn or corrupt line: keep the intact prefix only
		}
		lines = append(lines, l)
		valid += int64(len(raw)) + 1
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	return lines, valid, nil
}

// scanTerminated splits at newlines, yielding only lines whose newline is
// present; unlike bufio.ScanLines it never yields an unterminated final
// line, and it keeps a carriage return, so every line counts len+1 bytes.
func scanTerminated(data []byte, _ bool) (int, []byte, error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i], nil
	}
	return 0, nil, nil
}

// Put stores value under key, fsyncing before it returns. Re-putting a
// key with identical bytes is a no-op (the dedup case); a different value
// under an existing key is an error — content-addressed entries are
// immutable, so a mismatch means the key derivation is broken.
func (s *Store) Put(key string, value any) error {
	_, err := s.Add(key, value)
	return err
}

// Add is Put reporting whether the key was newly written: false means an
// identical value was already stored (the dedup no-op). Shard merges and
// double-completion accounting key off the distinction.
func (s *Store) Add(key string, value any) (bool, error) {
	buf, err := json.Marshal(value)
	if err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.values[key]; ok {
		if bytes.Equal(prev, buf) {
			return false, nil
		}
		return false, fmt.Errorf("store: key %s already holds a different value", key)
	}
	if s.f == nil {
		return false, fmt.Errorf("store: %s is closed", s.path)
	}
	rec, err := json.Marshal(line{Key: key, Value: buf})
	if err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	rec = append(rec, '\n')
	if _, err := s.f.Write(rec); err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	s.values[key] = buf
	s.order = append(s.order, key)
	s.appends++
	return true, nil
}

// Get unmarshals the value stored under key into out, reporting whether
// the key exists. A nil out checks existence only.
func (s *Store) Get(key string, out any) (bool, error) {
	s.mu.Lock()
	raw, ok := s.values[key]
	s.mu.Unlock()
	if !ok {
		return false, nil
	}
	if out == nil {
		return true, nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return true, fmt.Errorf("store: key %s: %w", key, err)
	}
	return true, nil
}

// Len reports how many distinct keys the store holds.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.values)
}

// Appends reports how many entries this process has appended.
func (s *Store) Appends() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appends
}

// Keys returns every stored key, sorted.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.values))
	for k := range s.values {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Tail returns the last n keys in append order (all of them when n
// exceeds the store size).
func (s *Store) Tail(n int) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n > len(s.order) {
		n = len(s.order)
	}
	if n <= 0 {
		return nil
	}
	out := make([]string, n)
	copy(out, s.order[len(s.order)-n:])
	return out
}

// Each calls fn for every entry in append order with the raw stored
// bytes, stopping at the first error.
func (s *Store) Each(fn func(key string, value json.RawMessage) error) error {
	s.mu.Lock()
	keys := make([]string, len(s.order))
	copy(keys, s.order)
	values := make([]json.RawMessage, len(keys))
	for i, k := range keys {
		values[i] = s.values[k]
	}
	s.mu.Unlock()
	for i, k := range keys {
		if err := fn(k, values[i]); err != nil {
			return err
		}
	}
	return nil
}

// Path returns the store file path.
func (s *Store) Path() string { return s.path }

// Close flushes and closes the store file. Further puts fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}

// Report is the result of an offline integrity scan.
type Report struct {
	// Exists reports whether the store file is present at all.
	Exists bool `json:"exists"`
	// Entries counts intact records (duplicate keys counted once each).
	Entries int `json:"entries"`
	// UniqueKeys counts distinct keys among the intact records.
	UniqueKeys int `json:"unique_keys"`
	// DupKeys counts records whose key repeats an earlier record.
	DupKeys int `json:"dup_keys"`
	// Bytes is the file size; ValidBytes the intact prefix length.
	Bytes      int64 `json:"bytes"`
	ValidBytes int64 `json:"valid_bytes"`
	// TornBytes is Bytes-ValidBytes: a non-zero value means the file ends
	// in a torn or corrupt line (recoverable — Open truncates it).
	TornBytes int64 `json:"torn_bytes"`
}

// Verify scans the store file at path without opening it for writing,
// reporting its integrity. Safe to run against a store another process
// has open.
func Verify(path string) (Report, error) {
	var rep Report
	fi, err := os.Stat(path)
	if err != nil {
		if os.IsNotExist(err) {
			return rep, nil
		}
		return rep, fmt.Errorf("store: %w", err)
	}
	if fi.IsDir() {
		return rep, fmt.Errorf("store: path %s is a directory, want a file", path)
	}
	rep.Exists = true
	rep.Bytes = fi.Size()
	lines, validBytes, err := loadLines(path)
	if err != nil {
		return rep, err
	}
	rep.Entries = len(lines)
	rep.ValidBytes = validBytes
	rep.TornBytes = rep.Bytes - validBytes
	seen := make(map[string]bool)
	for _, l := range lines {
		if seen[l.Key] {
			rep.DupKeys++
			continue
		}
		seen[l.Key] = true
	}
	rep.UniqueKeys = len(seen)
	return rep, nil
}
