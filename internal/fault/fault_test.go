package fault

import (
	"strings"
	"testing"
)

func TestValidate(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	muts := []func(*Config){
		func(c *Config) { c.Rates[SiteDiskRead] = -0.1 },
		func(c *Config) { c.Rates[SiteNetDrop] = 1.5 },
		func(c *Config) { c.Rates[SiteNodeStall] = nan() },
		func(c *Config) { c.RetryLatencyUS = -1 },
		func(c *Config) { c.NodeStallUS = -5 },
		func(c *Config) { c.MaxRetries = 0 },
		func(c *Config) { c.MaxRetries = MaxRetries + 1 },
		func(c *Config) { c.SpinUpDelayUS = MaxLatencyUS + 1 },
		func(c *Config) { c.NetRetryDelayUS = MaxLatencyUS + 1 },
	}
	for i, m := range muts {
		c := DefaultConfig()
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d validated", i)
		}
	}
}

func nan() float64 {
	z := 0.0
	return z / z
}

func TestParseSpecRoundTrip(t *testing.T) {
	cfg, err := ParseSpec("read=0.01, net-drop=0.005, seed=7, retries=5, stall-lat=9000")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Rates[SiteDiskRead] != 0.01 || cfg.Rates[SiteNetDrop] != 0.005 {
		t.Fatalf("rates = %v", cfg.Rates)
	}
	if cfg.Seed != 7 || cfg.MaxRetries != 5 || cfg.NodeStallUS != 9000 {
		t.Fatalf("knobs = %+v", cfg)
	}
	// Unset knobs keep their defaults.
	if cfg.RemapLatencyUS != DefaultConfig().RemapLatencyUS {
		t.Fatalf("remap latency = %d", cfg.RemapLatencyUS)
	}
	// Equal configs render the same canonical string; field order in the
	// spec must not matter.
	cfg2, err := ParseSpec("seed=7,retries=5,net-drop=0.005,stall-lat=9000,read=0.01")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Canon() != cfg2.Canon() {
		t.Fatalf("canonical forms differ:\n%s\n%s", cfg.Canon(), cfg2.Canon())
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus=0.1",       // unknown site
		"read",            // not key=value
		"read=zero",       // unparsable rate
		"read=2",          // out-of-range rate
		"retries=0",       // invalid bound
		"retry-lat=-5",    // negative latency
		"retries=maybe",   // unparsable int
		"spinup-lat=nope", // unparsable knob
		// Latencies past an hour, or retries past 16, would wrap the
		// virtual clock: now + stall, or a backoff lat << (k−1).
		"stall=0.5,stall-lat=9223372036854775807",
		"stall=0.5,stall-lat=4611686018427387904",
		"stall-lat=3600000001",
		"retry-lat=2000,retries=62",
		"retries=17",
	} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

func TestParseSpecEmptyMeansNoInjection(t *testing.T) {
	cfg, err := ParseSpec("   ")
	if err != nil || cfg != nil {
		t.Fatalf("empty spec = %v, %v; want nil, nil", cfg, err)
	}
	if cfg.Canon() != "" {
		t.Fatalf("nil config canon = %q", cfg.Canon())
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if in.Enabled() || in.Hit(SiteDiskRead) || in.MaxRetries() != 0 {
		t.Fatal("nil injector not inert")
	}
	if in.Stats().Total() != 0 || in.RetryLatencyUS() != 0 || in.NodeStallUS() != 0 {
		t.Fatal("nil injector accessors not zero")
	}
	if NewInjector(nil, 1) != nil {
		t.Fatal("NewInjector(nil) != nil")
	}
}

func TestZeroRateSiteNeverAdvancesState(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rates[SiteNetDrop] = 0.5
	in := NewInjector(&cfg, 42)
	before := in.state
	for i := 0; i < 1000; i++ {
		if in.Hit(SiteDiskRead) {
			t.Fatal("zero-rate site fired")
		}
	}
	if in.state != before {
		t.Fatal("zero-rate draws advanced stream state")
	}
	// The enabled site's stream advances exactly once per draw.
	in.Hit(SiteNetDrop)
	if in.state[SiteNetDrop] == before[SiteNetDrop] {
		t.Fatal("enabled draw did not advance its stream")
	}
	if in.state[SiteDiskRead] != before[SiteDiskRead] {
		t.Fatal("enabled draw leaked into another site's stream")
	}
}

func TestDeterministicAcrossInjectors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rates[SiteDiskRead] = 0.3
	cfg.Rates[SiteNetDrop] = 0.05
	draw := func() []bool {
		in := NewInjector(&cfg, 42)
		out := make([]bool, 0, 2000)
		for i := 0; i < 1000; i++ {
			out = append(out, in.Hit(SiteDiskRead), in.Hit(SiteNetDrop))
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs between identical injectors", i)
		}
	}
}

func TestSeedsProduceDistinctStreams(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rates[SiteDiskRead] = 0.5
	pattern := func(runSeed int64) string {
		in := NewInjector(&cfg, runSeed)
		var b strings.Builder
		for i := 0; i < 200; i++ {
			if in.Hit(SiteDiskRead) {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		return b.String()
	}
	if pattern(1) == pattern(2) {
		t.Fatal("different run seeds produced identical fault patterns")
	}
	cfg2 := cfg
	cfg2.Seed = 99
	in2 := NewInjector(&cfg2, 1)
	var b strings.Builder
	for i := 0; i < 200; i++ {
		if in2.Hit(SiteDiskRead) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	if pattern(1) == b.String() {
		t.Fatal("different fault seeds produced identical fault patterns")
	}
}

func TestRateOneAlwaysFires(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rates[SiteSpinUpFail] = 1.0
	in := NewInjector(&cfg, 3)
	for i := 0; i < 100; i++ {
		if !in.Hit(SiteSpinUpFail) {
			t.Fatal("rate-1 site failed to fire")
		}
	}
	if in.Stats().Count(SiteSpinUpFail) != 100 {
		t.Fatalf("count = %d", in.Stats().Count(SiteSpinUpFail))
	}
}

func TestRateIsApproximatelyHonoured(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rates[SiteNetDup] = 0.1
	in := NewInjector(&cfg, 7)
	const n = 100_000
	for i := 0; i < n; i++ {
		in.Hit(SiteNetDup)
	}
	got := float64(in.Stats().Count(SiteNetDup)) / n
	if got < 0.09 || got > 0.11 {
		t.Fatalf("empirical rate %.4f for configured 0.1", got)
	}
	if total := in.Stats().Total(); total != in.Stats().Count(SiteNetDup) {
		t.Fatalf("Total %d != site count", total)
	}
}

func TestSiteStrings(t *testing.T) {
	if SiteDiskRead.String() != "read" || SiteNodeStall.String() != "stall" {
		t.Fatal("site names drifted from spec keys")
	}
	if Site(200).String() != "invalid" {
		t.Fatal("out-of-range site must stringify invalid")
	}
	if NumSites() != 8 {
		t.Fatalf("NumSites = %d", NumSites())
	}
	if (Stats{}).Count(Site(200)) != 0 {
		t.Fatal("out-of-range Count must be 0")
	}
}

// FuzzParseSpec: every spec ParseSpec accepts validates, renders a Canon
// that re-parses to an equal config with the same Canon, and keeps its
// longest doubled backoff, lat << (MaxRetries−1), inside int64.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseSpec(spec)
		if err != nil || cfg == nil {
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("ParseSpec(%q) accepted an invalid config: %v", spec, err)
		}
		again, err := ParseSpec(cfg.Canon())
		if err != nil || again == nil || *again != *cfg || again.Canon() != cfg.Canon() {
			t.Fatalf("Canon %q of %q re-parses to %+v, %v; want %+v", cfg.Canon(), spec, again, err, cfg)
		}
		shift := cfg.MaxRetries - 1
		for _, lat := range []int64{cfg.RetryLatencyUS, cfg.RemapLatencyUS, cfg.SpinUpDelayUS, cfg.NetRetryDelayUS, cfg.NodeStallUS} {
			if longest := lat << shift; longest < 0 || longest>>shift != lat {
				t.Fatalf("%q: backoff %d << %d wraps", spec, lat, shift)
			}
		}
	})
}
