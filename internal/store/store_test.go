package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

type payload struct {
	N int    `json:"n"`
	S string `json:"s"`
}

// TestStorePutGetRoundTrip pins the basic contract: Put then Get returns
// the same value, and Len/Keys/Appends account for it.
func TestStorePutGetRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.jsonl")
	s, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("b", payload{N: 2, S: "two"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", payload{N: 1, S: "one"}); err != nil {
		t.Fatal(err)
	}
	var p payload
	ok, err := s.Get("b", &p)
	if err != nil || !ok || p.N != 2 || p.S != "two" {
		t.Fatalf("Get(b) = %+v, %v, %v", p, ok, err)
	}
	if ok, _ := s.Get("absent", nil); ok {
		t.Fatal("absent key reported present")
	}
	if s.Len() != 2 || s.Appends() != 2 {
		t.Fatalf("Len=%d Appends=%d, want 2/2", s.Len(), s.Appends())
	}
	keys := s.Keys()
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("Keys() = %v, want sorted [a b]", keys)
	}
	tail := s.Tail(1)
	if len(tail) != 1 || tail[0] != "a" {
		t.Fatalf("Tail(1) = %v, want [a] (append order)", tail)
	}
}

// TestStoreDedupAndConflict pins the content-addressing rules: identical
// re-puts are silent no-ops, conflicting values are errors.
func TestStoreDedupAndConflict(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.jsonl")
	s, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("k", payload{N: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", payload{N: 1}); err != nil {
		t.Fatalf("identical re-put errored: %v", err)
	}
	if s.Appends() != 1 {
		t.Fatalf("identical re-put appended (Appends=%d)", s.Appends())
	}
	if err := s.Put("k", payload{N: 2}); err == nil {
		t.Fatal("conflicting put accepted")
	}
}

// TestStoreSurvivesRestart asserts a reopened store serves everything the
// previous process stored.
func TestStoreSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.jsonl")
	s, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), payload{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	s2, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 10 {
		t.Fatalf("reopened Len=%d, want 10", s2.Len())
	}
	var p payload
	if ok, err := s2.Get("k7", &p); err != nil || !ok || p.N != 7 {
		t.Fatalf("Get(k7) after reopen = %+v, %v, %v", p, ok, err)
	}
	// And appends continue.
	if err := s2.Put("k10", payload{N: 10}); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Len() != 11 {
		t.Fatalf("after append+reopen Len=%d, want 11", s3.Len())
	}
}

// TestStoreTruncatesTornTail asserts a crash mid-append (simulated by
// chopping bytes off the end) loses only the torn line.
func TestStoreTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.jsonl")
	s, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), payload{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf[:len(buf)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Entries != 4 || rep.TornBytes == 0 {
		t.Fatalf("Verify = %+v, want 4 intact entries and a torn tail", rep)
	}
	s2, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 4 {
		t.Fatalf("reopened torn store Len=%d, want 4", s2.Len())
	}
	// The torn line is gone from disk: re-putting the lost key works and
	// the file verifies clean afterwards.
	if err := s2.Put("k4", payload{N: 4}); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	rep2, err := Verify(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Entries != 5 || rep2.TornBytes != 0 || rep2.DupKeys != 0 {
		t.Fatalf("post-repair Verify = %+v", rep2)
	}
}

// A tear just before the last newline leaves a line that parses but was
// never acknowledged. Open must drop it like any torn line: if it kept the
// line, it would count a newline that is not on disk, and the next append
// would merge into it and take every later record with it.
func TestStoreDropsUnterminatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.jsonl")
	s, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "c"} {
		if err := s.Put(k, payload{S: k}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	last := len(buf) - 1 - strings.LastIndexByte(string(buf[:len(buf)-1]), '\n')
	if err := os.WriteFile(path, buf[:len(buf)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Entries != 2 || rep.TornBytes != int64(last-1) {
		t.Fatalf("Verify = %+v, want 2 entries and the %d-byte unterminated line torn", rep, last-1)
	}
	s2, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Put("d", payload{S: "d"}); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := strings.Join(s3.Keys(), " "); got != "a b d" {
		t.Fatalf("keys after the repair and one Put = %q, want \"a b d\"", got)
	}
}

// TestStoreRejectsDirectory pins the clear error for a directory path.
func TestStoreRejectsDirectory(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir, false); err == nil {
		t.Fatal("Open accepted a directory")
	} else if want := "is a directory"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
	if _, err := Verify(dir); err == nil {
		t.Fatal("Verify accepted a directory")
	}
}

// TestStoreVerifyMissingFile pins Verify on an absent store: no error,
// Exists=false.
func TestStoreVerifyMissingFile(t *testing.T) {
	rep, err := Verify(filepath.Join(t.TempDir(), "absent.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exists || rep.Entries != 0 {
		t.Fatalf("Verify(absent) = %+v", rep)
	}
}

// TestStoreEachOrder asserts Each visits entries in append order with the
// raw stored bytes.
func TestStoreEachOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.jsonl")
	s, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, k := range []string{"z", "m", "a"} {
		if err := s.Put(k, payload{S: k}); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	err = s.Each(func(key string, raw json.RawMessage) error {
		var p payload
		if err := json.Unmarshal(raw, &p); err != nil {
			return err
		}
		if p.S != key {
			return fmt.Errorf("key %s holds %+v", key, p)
		}
		got = append(got, key)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != "z" || got[1] != "m" || got[2] != "a" {
		t.Fatalf("Each order = %v, want [z m a]", got)
	}
}

// TestStoreConcurrentPuts exercises the mutex under -race: concurrent
// writers on distinct and identical keys.
func TestStoreConcurrentPuts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.jsonl")
	s, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				key := fmt.Sprintf("k%d", i) // all goroutines contend per key
				if err := s.Put(key, payload{N: i}); err != nil {
					t.Error(err)
					return
				}
				if ok, err := s.Get(key, nil); err != nil || !ok {
					t.Errorf("Get(%s) = %v, %v", key, ok, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 20 {
		t.Fatalf("Len=%d, want 20", s.Len())
	}
	if s.Appends() != 20 {
		t.Fatalf("Appends=%d, want 20 (dedup must not re-append)", s.Appends())
	}
}
