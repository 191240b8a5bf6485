package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// fuzzJournal is the valid journal FuzzStoreRecovery cuts: three records,
// as Put writes them.
func fuzzJournal(t *testing.T) []byte {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	s, err := Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range []string{"a", "b", "c"} {
		if err := s.Put(k, payload{N: i, S: k}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// parsesAsRecord reports whether raw is a line Open loads.
func parsesAsRecord(raw []byte) (line, bool) {
	var l line
	return l, json.Unmarshal(raw, &l) == nil && l.Key != ""
}

// FuzzStoreRecovery cuts back bytes off the end of a valid journal and
// appends tail, as a crash mid-append or a corrupt disk would leave it.
// Open must load exactly the longest prefix of complete, well-formed lines
// (every record wholly before the cut among them) and leave that prefix,
// and nothing else, on disk. One Put then adds exactly one record across
// a reopen.
func FuzzStoreRecovery(f *testing.F) {
	f.Fuzz(func(t *testing.T, back uint16, tail []byte) {
		journal := fuzzJournal(t)
		cut := len(journal) - int(back)%(len(journal)+1)
		data := append(journal[:cut:cut], tail...)
		path := filepath.Join(t.TempDir(), "s.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path, false)
		if err != nil {
			t.Fatal(err)
		}
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, kept) || (len(kept) > 0 && kept[len(kept)-1] != '\n') {
			t.Fatalf("kept %q of %q: not a prefix of whole lines", kept, data)
		}
		keys := map[string]bool{}
		for _, raw := range bytes.SplitAfter(kept, []byte("\n")) {
			if len(raw) == 0 {
				continue
			}
			l, ok := parsesAsRecord(raw[:len(raw)-1])
			if !ok {
				t.Fatalf("kept line %q does not load", raw)
			}
			keys[l.Key] = true
		}
		rest := data[len(kept):]
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			if _, ok := parsesAsRecord(rest[:i]); ok {
				t.Fatalf("dropped the intact line %q", rest[:i])
			}
		}
		if s.Len() != len(keys) {
			t.Fatalf("loaded %d keys, the kept prefix holds %d", s.Len(), len(keys))
		}
		for _, raw := range bytes.SplitAfter(journal[:cut], []byte("\n")) {
			if l, ok := parsesAsRecord(bytes.TrimSuffix(raw, []byte("\n"))); ok && bytes.HasSuffix(raw, []byte("\n")) && !keys[l.Key] {
				t.Fatalf("record %q, wholly before the cut, was dropped", l.Key)
			}
		}
		key := "put"
		for n := 0; keys[key]; n++ {
			key = fmt.Sprintf("put%d", n)
		}
		if err := s.Put(key, payload{S: key}); err != nil {
			t.Fatal(err)
		}
		s.Close()
		s2, err := Open(path, false)
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		if ok, _ := s2.Get(key, nil); !ok || s2.Len() != len(keys)+1 {
			t.Fatalf("after one Put and a reopen: %d keys (want %d), %q present %v", s2.Len(), len(keys)+1, key, ok)
		}
	})
}
