package harness

import (
	"context"
	"testing"

	"sdds/internal/cluster"
)

// TestPlanRequestsCanonicalAndStable pins the partitionable plan form:
// deterministic order across derivations, every element canonical, and
// content keys distinct (the dedup invariant shards rely on).
func TestPlanRequestsCanonicalAndStable(t *testing.T) {
	c := Config{Scale: 0.05, Seed: 42}
	a := PlanRequests(All(), c)
	b := PlanRequests(All(), c)
	if len(a) == 0 {
		t.Fatal("PlanRequests returned an empty plan")
	}
	if len(a) != len(b) {
		t.Fatalf("plan lengths differ across derivations: %d vs %d", len(a), len(b))
	}
	seen := make(map[string]bool)
	for i, r := range a {
		if r != b[i] {
			t.Fatalf("plan order diverged at %d: %v vs %v", i, r, b[i])
		}
		norm, err := r.Normalize()
		if err != nil {
			t.Fatalf("plan element %d invalid: %v", i, err)
		}
		if norm != r {
			t.Errorf("plan element %d not canonical: %v normalizes to %v", i, r, norm)
		}
		key := r.ContentKey()
		if seen[key] {
			t.Errorf("plan element %d repeats content key %s", i, key)
		}
		seen[key] = true
	}
}

// TestInstallSeedsCache pins Install semantics: the installed result is
// served as a journal-provenance cache hit, a second install of the same
// key is a first-wins no-op, and an invalid request is rejected.
func TestInstallSeedsCache(t *testing.T) {
	s := NewSession(SessionOptions{})
	req := Request{App: "sar", Policy: "history", Scheduling: true, Scale: 0.05, Seed: 42}
	res := &cluster.Result{Program: "sar", EnergyJ: 123.5}

	added, err := s.Install(req, res)
	if err != nil || !added {
		t.Fatalf("Install = %v, %v, want true, nil", added, err)
	}
	if s.Preloaded() != 1 {
		t.Errorf("Preloaded = %d, want 1", s.Preloaded())
	}
	// Second install (even via a differently-spelled but equal request)
	// must not replace the entry.
	other := &cluster.Result{Program: "sar", EnergyJ: 999}
	added, err = s.Install(Request{App: "sar", Policy: "history-based", Scheduling: true, Scale: 0.05, Seed: 42}, other)
	if err != nil || added {
		t.Fatalf("re-Install = %v, %v, want false, nil", added, err)
	}

	got, hit, err := s.RunRequest(context.Background(), req)
	if err != nil {
		t.Fatalf("RunRequest: %v", err)
	}
	if !hit || got != res {
		t.Fatalf("RunRequest hit=%v res=%p, want the installed result %p", hit, got, res)
	}
	if cres, cerr, ok := s.Cached(req); !ok || cerr != nil || cres != res {
		t.Fatalf("Cached = %p, %v, %v, want installed result", cres, cerr, ok)
	}

	if _, err := s.Install(Request{App: "no-such-app"}, res); err == nil {
		t.Error("Install of invalid request succeeded, want error")
	}
	if _, err := s.Install(req, nil); err == nil {
		t.Error("Install of nil result succeeded, want error")
	}
}

// TestInstallPreloadedConcurrent reads Preloaded while Install commits
// results, as sddsd's GET /v1/status does while a shard result is being
// merged. Under -race it pins that the count is read under the lock its
// writer holds; without -race it checks every install was counted.
func TestInstallPreloadedConcurrent(t *testing.T) {
	s := NewSession(SessionOptions{})
	const n = 64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for seed := int64(1); seed <= n; seed++ {
			req := Request{App: "sar", Scale: 0.05, Seed: seed}
			if _, err := s.Install(req, &cluster.Result{Program: "sar"}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		if p := s.Preloaded(); p < 0 || p > n {
			t.Fatalf("Preloaded = %d mid-install, want 0..%d", p, n)
		}
	}
	if p := s.Preloaded(); p != n {
		t.Fatalf("Preloaded = %d after %d installs", p, n)
	}
}
