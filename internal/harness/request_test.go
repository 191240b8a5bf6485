package harness

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"sdds/internal/power"
)

// TestRequestNormalizeDefaults pins the zero-value defaults: policy
// "default", scale 1.0, seed 1.
func TestRequestNormalizeDefaults(t *testing.T) {
	r, err := Request{App: "sar"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	want := Request{App: "sar", Policy: "default", Scale: 1.0, Seed: 1}
	if r != want {
		t.Fatalf("normalized %+v, want %+v", r, want)
	}
}

// TestRequestNormalizeCanonicalizesPolicy asserts short policy forms
// normalize to the canonical names, and unknown ones get suggestions.
func TestRequestNormalizeCanonicalizesPolicy(t *testing.T) {
	r, err := Request{App: "sar", Policy: "history"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if r.Policy != "history-based" {
		t.Fatalf("policy %q, want history-based", r.Policy)
	}
	_, err = Request{App: "sar", Policy: "histroy"}.Normalize()
	if err == nil || !strings.Contains(err.Error(), "did you mean") {
		t.Fatalf("want did-you-mean error, got %v", err)
	}
}

// TestRequestNormalizeRejects pins the validation failures.
func TestRequestNormalizeRejects(t *testing.T) {
	cases := []Request{
		{},                                       // no app
		{App: "nosuch"},                          // unknown app
		{App: "sar", Scale: -1},                  // negative scale
		{App: "sar", Variant: "thetaa=8"},        // unknown variant key
		{App: "sar", Variant: "theta=-3"},        // bad variant value
		{App: "sar", Faults: "nonsense"},         // bad fault spec
		{App: "sar", TimeoutMS: -5},              // negative timeout
		{App: "sar", Variant: "theta=8,theta=8"}, // repeated key
	}
	for _, r := range cases {
		if err := r.Validate(); err == nil {
			t.Errorf("%+v validated, want error", r)
		}
	}
}

// TestRequestVariantCanonicalization pins the variant grammar: unsorted
// and default-restating tags collapse to one canonical form.
func TestRequestVariantCanonicalization(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"theta=4", ""},          // the default, canonically absent
		{"procs=32,nodes=8", ""}, // all defaults
		{"theta=8", "theta=8"},
		{"theta=8,nodes=16", "nodes=16,theta=8"}, // sorted
		{"cache=33554432", "cache=32MB"},         // bytes render as MB
		{"cache=100", "cache=100"},               // non-MB stays bytes
		{"theta=0", "theta=0"},                   // unbounded, not default
		{"pacache,delta=40", "delta=40,pacache"},
	}
	for _, tc := range cases {
		got, err := canonVariant(tc.in)
		if err != nil {
			t.Fatalf("%q: %v", tc.in, err)
		}
		if got != tc.want {
			t.Errorf("canonVariant(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestVariantOverridesTag pins the flag→tag rendering, including the
// theta=-1 "unbounded" convention.
func TestVariantOverridesTag(t *testing.T) {
	cases := []struct {
		o    VariantOverrides
		want string
	}{
		{VariantOverrides{}, ""},
		{VariantOverrides{Theta: 4}, ""}, // the default
		{VariantOverrides{Theta: -1}, "theta=0"},
		{VariantOverrides{Nodes: 16, Theta: 8}, "nodes=16,theta=8"},
		{VariantOverrides{CacheBytes: 32 << 20, PACache: true}, "cache=32MB,pacache"},
	}
	for _, tc := range cases {
		if got := tc.o.Tag(); got != tc.want {
			t.Errorf("%+v.Tag() = %q, want %q", tc.o, got, tc.want)
		}
	}
}

// TestRequestKeyStability pins the rendered key and content key for one
// request. This is the persistent store's address format: changing it
// silently orphans every stored result.
func TestRequestKeyStability(t *testing.T) {
	r, err := Request{App: "sar", Policy: "history", Scheduling: true, Scale: 0.05, Seed: 42}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	wantKey := "app=sar|policy=history-based|sched=true|scale=0.05|seed=42|variant=|faults="
	if got := r.Key(); got != wantKey {
		t.Fatalf("Key() = %q, want %q", got, wantKey)
	}
	// TimeoutMS is an execution knob, not identity.
	r2 := r
	r2.TimeoutMS = 30000
	if r2.Key() != r.Key() || r2.ContentKey() != r.ContentKey() {
		t.Fatal("TimeoutMS leaked into the content key")
	}
	if len(r.ContentKey()) != 64 {
		t.Fatalf("ContentKey() = %q, want 64 hex chars", r.ContentKey())
	}
}

// TestRequestJSONRoundTrip asserts the wire form round-trips through
// encoding/json without drift.
func TestRequestJSONRoundTrip(t *testing.T) {
	r := Request{App: "sar", Policy: "history-based", Scheduling: true,
		Scale: 0.05, Seed: 42, Variant: "theta=8", Faults: "read=0.01", TimeoutMS: 1000}
	buf, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Request
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back != r {
		t.Fatalf("round-trip drifted: %+v vs %+v", back, r)
	}
}

// TestSessionRunRequest asserts RunRequest resolves through the same
// cache as plan-driven runs: the second identical request is a hit, and
// Cached sees the verdict.
func TestSessionRunRequest(t *testing.T) {
	s := NewSession(SessionOptions{Workers: 2})
	req := Request{App: "sar", Policy: "default", Scale: 0.02, Seed: 7}
	if _, _, ok := s.Cached(req); ok {
		t.Fatal("Cached hit before any run")
	}
	res, hit, err := s.RunRequest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first run reported as cache hit")
	}
	res2, hit2, err := s.RunRequest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !hit2 || res2 != res {
		t.Fatal("second identical request did not hit the cache")
	}
	cres, cerr, ok := s.Cached(req)
	if !ok || cerr != nil || cres != res {
		t.Fatalf("Cached() = (%v, %v, %v), want the run", cres, cerr, ok)
	}
	if n := len(s.InFlight()); n != 0 {
		t.Fatalf("InFlight() = %d after completion", n)
	}
	// A plan-driven run of the same config must also hit.
	c := Config{Scale: 0.02, Seed: 7}.withDefaults()
	_, out3, err := s.run(context.Background(), c.request("sar", power.KindDefault, false, ""))
	if err != nil {
		t.Fatal(err)
	}
	if !out3.hit {
		t.Fatal("plan-driven run of the same config missed the request's cache slot")
	}
}
