// Package fault is the simulator's deterministic fault injector: a seeded
// source of transient disk errors, bad-sector remaps, spin-up failures and
// delays, dropped or duplicated network transfers, and I/O-node stalls.
//
// Determinism is the whole design. Every fault site draws from its own
// splitmix64 stream, seeded from (config seed, run seed, site), and the
// streams advance only in simulation-event order on the engine goroutine —
// never from math/rand's global source and never from wall-clock state — so
// a run with a fixed seed and a fixed fault config reproduces the exact
// same fault pattern regardless of host, wall time, or harness worker
// count. A zero-rate injector takes every hook path but never fires,
// keeping the golden results bit-identical.
//
// The package depends only on the standard library (and only on strconv/
// strings/fmt/math at that), so the event core can carry an injector the
// same way it carries a probe without an import cycle. Durations are plain
// int64 microseconds — the engine's native unit — for the same reason.
package fault

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Site identifies one fault injection point in the simulated stack.
type Site uint8

// Fault sites. Each has its own rate, its own deterministic stream, and its
// own injected-fault counter.
const (
	// SiteDiskRead is a transient media error on a completing disk read.
	SiteDiskRead Site = iota
	// SiteDiskWrite is a transient media error on a completing disk write.
	SiteDiskWrite
	// SiteBadSector is a bad-sector remap: the request succeeds but pays
	// RemapLatency of extra service time.
	SiteBadSector
	// SiteSpinUpFail is a spin-up attempt that aborts and must be re-issued.
	SiteSpinUpFail
	// SiteSpinUpDelay is a spin-up that succeeds but takes SpinUpDelay
	// longer than nominal.
	SiteSpinUpDelay
	// SiteNetDrop is a dropped network transfer, retransmitted after
	// exponential backoff.
	SiteNetDrop
	// SiteNetDup is a duplicated network transfer: the copy burns link
	// bandwidth but the payload is delivered once.
	SiteNetDup
	// SiteNodeStall is a transient I/O-node stall: the node accepts the
	// request only after NodeStallTime.
	SiteNodeStall

	numSites
)

// siteNames double as the canonical spec keys parsed by ParseSpec.
var siteNames = [numSites]string{
	SiteDiskRead:    "read",
	SiteDiskWrite:   "write",
	SiteBadSector:   "badsector",
	SiteSpinUpFail:  "spinup-fail",
	SiteSpinUpDelay: "spinup-delay",
	SiteNetDrop:     "net-drop",
	SiteNetDup:      "net-dup",
	SiteNodeStall:   "stall",
}

// String returns the site's canonical spec key.
func (s Site) String() string {
	if int(s) < len(siteNames) {
		return siteNames[s]
	}
	return "invalid"
}

// NumSites reports the number of defined fault sites.
func NumSites() int { return int(numSites) }

// Config describes a fault model: per-site rates plus the latency knobs the
// degradation paths use. The zero value (all rates zero) is valid and
// injects nothing while still exercising every hook.
type Config struct {
	// Rates holds the per-site fault probability in [0, 1], indexed by
	// Site. A rate applies per decision point: per completing disk request
	// (read/write/bad sector), per spin-up attempt, per network transfer,
	// per I/O-node request.
	Rates [numSites]float64

	// RetryLatencyUS is the base backoff (µs) of the bounded retries in
	// ionode and mpiio; attempt k waits RetryLatencyUS << (k-1).
	RetryLatencyUS int64
	// RemapLatencyUS is the extra service time (µs) of a bad-sector remap.
	RemapLatencyUS int64
	// SpinUpDelayUS is the extra spin-up time (µs) of a delayed spin-up.
	SpinUpDelayUS int64
	// NetRetryDelayUS is the base retransmission backoff (µs) after a
	// dropped transfer; retry k waits NetRetryDelayUS << (k-1).
	NetRetryDelayUS int64
	// NodeStallUS is the length (µs) of an I/O-node stall.
	NodeStallUS int64
	// MaxRetries bounds every retry loop (disk resubmission, chunk retry,
	// retransmission, spin-up re-issue).
	MaxRetries int
	// Seed is mixed with the run seed so one cluster seed can be swept
	// across fault patterns (and vice versa).
	Seed int64
}

// DefaultConfig returns a config with all rates zero and the latency knobs
// at their documented defaults: 2 ms retry base, 8 ms remap, 500 ms spin-up
// delay, 1 ms retransmission base, 5 ms stall, 3 retries.
func DefaultConfig() Config {
	return Config{
		RetryLatencyUS:  2_000,
		RemapLatencyUS:  8_000,
		SpinUpDelayUS:   500_000,
		NetRetryDelayUS: 1_000,
		NodeStallUS:     5_000,
		MaxRetries:      3,
	}
}

// Bounds on the latency and retry knobs. Backoffs double per attempt, so
// the longest one any model computes is MaxLatencyUS << (MaxRetries−1),
// about 1.2e14 µs: far from wrapping the int64 virtual clock.
const (
	// MaxLatencyUS caps every latency knob at one hour of virtual time.
	MaxLatencyUS = 3_600_000_000
	// MaxRetries caps MaxRetries.
	MaxRetries = 16
)

// Validate reports the first configuration problem, or nil.
func (c *Config) Validate() error {
	for s, r := range c.Rates {
		if r < 0 || r > 1 || math.IsNaN(r) {
			return fmt.Errorf("fault: %s rate %v must be in [0, 1]", Site(s), r)
		}
	}
	for _, l := range []struct {
		name string
		v    int64
	}{
		{"retry latency", c.RetryLatencyUS},
		{"remap latency", c.RemapLatencyUS},
		{"spin-up delay", c.SpinUpDelayUS},
		{"net retry delay", c.NetRetryDelayUS},
		{"node stall", c.NodeStallUS},
	} {
		if l.v < 0 || l.v > MaxLatencyUS {
			return fmt.Errorf("fault: %s %d µs must be in [0, %d]", l.name, l.v, MaxLatencyUS)
		}
	}
	if c.MaxRetries < 1 || c.MaxRetries > MaxRetries {
		return fmt.Errorf("fault: max retries %d must be in [1, %d]", c.MaxRetries, MaxRetries)
	}
	return nil
}

// Canon renders the config in a canonical single-line form: sorted keys,
// shortest float representation, defaults omitted only when the whole
// config is nil. Equal configs render equally, which is what lets the
// harness use the string as a cache-key component. A nil receiver renders
// as "" (no fault injection).
func (c *Config) Canon() string {
	if c == nil {
		return ""
	}
	parts := make([]string, 0, int(numSites)+7)
	for s := Site(0); s < numSites; s++ {
		if r := c.Rates[s]; r != 0 {
			parts = append(parts, s.String()+"="+strconv.FormatFloat(r, 'g', -1, 64))
		}
	}
	parts = append(parts,
		"retry-lat="+strconv.FormatInt(c.RetryLatencyUS, 10),
		"remap-lat="+strconv.FormatInt(c.RemapLatencyUS, 10),
		"spinup-lat="+strconv.FormatInt(c.SpinUpDelayUS, 10),
		"net-lat="+strconv.FormatInt(c.NetRetryDelayUS, 10),
		"stall-lat="+strconv.FormatInt(c.NodeStallUS, 10),
		"retries="+strconv.Itoa(c.MaxRetries),
		"seed="+strconv.FormatInt(c.Seed, 10),
	)
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// specLatencies maps the optional latency/retry spec keys onto config
// fields (values in µs except retries and seed).
func (c *Config) setKnob(key string, val string) (bool, error) {
	var dst *int64
	switch key {
	case "retry-lat":
		dst = &c.RetryLatencyUS
	case "remap-lat":
		dst = &c.RemapLatencyUS
	case "spinup-lat":
		dst = &c.SpinUpDelayUS
	case "net-lat":
		dst = &c.NetRetryDelayUS
	case "stall-lat":
		dst = &c.NodeStallUS
	case "seed":
		dst = &c.Seed
	case "retries":
		n, err := strconv.Atoi(val)
		if err != nil {
			return true, fmt.Errorf("fault: retries %q: %v", val, err)
		}
		c.MaxRetries = n
		return true, nil
	default:
		return false, nil
	}
	n, err := strconv.ParseInt(val, 10, 64)
	if err != nil {
		return true, fmt.Errorf("fault: %s %q: %v", key, val, err)
	}
	*dst = n
	return true, nil
}

// ParseSpec parses a comma-separated fault spec into a config over the
// defaults, e.g. "read=0.001,net-drop=0.01,stall=0.005,seed=7". Rate keys
// are the Site names (read, write, badsector, spinup-fail, spinup-delay,
// net-drop, net-dup, stall), each in [0, 1]; knob keys are retry-lat,
// remap-lat, spinup-lat, net-lat, stall-lat (all µs, each in [0,
// MaxLatencyUS], one hour), retries (in [1, MaxRetries], 16), and seed.
// The bounds keep every latency and doubled backoff from wrapping the
// virtual clock. An empty spec returns nil (no injection).
func ParseSpec(spec string) (*Config, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	cfg := DefaultConfig()
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("fault: spec field %q is not key=value", field)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if handled, err := cfg.setKnob(key, val); handled {
			if err != nil {
				return nil, err
			}
			continue
		}
		site := numSites
		for s := Site(0); s < numSites; s++ {
			if s.String() == key {
				site = s
				break
			}
		}
		if site == numSites {
			return nil, fmt.Errorf("fault: unknown spec key %q (sites: %s)", key, strings.Join(siteNames[:], ", "))
		}
		rate, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("fault: %s rate %q: %v", key, val, err)
		}
		cfg.Rates[site] = rate
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &cfg, nil
}

// Stats is the injector's per-site fired-fault counters.
type Stats struct {
	Injected [numSites]int64
}

// Count returns the number of injected faults at a site.
func (st Stats) Count(s Site) int64 {
	if int(s) >= len(st.Injected) {
		return 0
	}
	return st.Injected[s]
}

// Total sums the injected faults over all sites.
func (st Stats) Total() int64 {
	var t int64
	for _, n := range st.Injected {
		t += n
	}
	return t
}

// Injector is the per-run fault source. Construct one per cluster run with
// NewInjector; all methods are nil-safe, so models cache the pointer
// unconditionally (exactly like the probe) and a nil injector costs one
// branch per decision point. Not safe for concurrent use — decisions are
// drawn on the engine goroutine in event order, which is what makes the
// fault pattern reproducible.
type Injector struct {
	cfg Config
	// threshold[s] is Rates[s] scaled to the uint64 range so Hit is a
	// single hash and compare, no float math on the hot path.
	threshold [numSites]uint64
	state     [numSites]uint64
	stats     Stats
}

// NewInjector builds an injector for one run. cfg nil returns nil (faults
// disabled); a non-nil cfg with all-zero rates returns a live injector
// whose Hit never fires — the configuration the golden suite uses to prove
// the hooks are free. runSeed is the cluster run's seed.
func NewInjector(cfg *Config, runSeed int64) *Injector {
	if cfg == nil {
		return nil
	}
	in := &Injector{cfg: *cfg}
	for s := Site(0); s < numSites; s++ {
		switch r := cfg.Rates[s]; {
		case r >= 1:
			in.threshold[s] = math.MaxUint64
		case r > 0:
			in.threshold[s] = uint64(r * float64(1<<63) * 2)
		}
		// Distinct, deterministic stream per site: finalize the mixed seed
		// once so adjacent sites land far apart in the sequence.
		in.state[s] = mix64(uint64(cfg.Seed) ^ uint64(runSeed)*0x9E3779B97F4A7C15 ^ (uint64(s)+1)<<56)
	}
	return in
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Hit draws the site's next decision: true injects a fault. Nil-safe and
// allocation-free; a zero-rate site returns false without advancing its
// stream, so disabled sites cost two predictable branches.
//
//sddsvet:hotpath
func (in *Injector) Hit(s Site) bool {
	if in == nil {
		return false
	}
	th := in.threshold[s]
	if th == 0 {
		return false
	}
	in.state[s] += 0x9E3779B97F4A7C15
	if mix64(in.state[s]) >= th {
		return false
	}
	in.stats.Injected[s]++
	return true
}

// Enabled reports whether an injector is attached (even one with all-zero
// rates).
func (in *Injector) Enabled() bool { return in != nil }

// Stats returns a copy of the per-site injected-fault counters.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return in.stats
}

// Config returns the injector's fault model (zero value when nil).
func (in *Injector) Config() Config {
	if in == nil {
		return Config{}
	}
	return in.cfg
}

// MaxRetries returns the retry bound (0 when nil, so loops degrade to
// no-retry).
func (in *Injector) MaxRetries() int {
	if in == nil {
		return 0
	}
	return in.cfg.MaxRetries
}

// RetryLatencyUS returns the disk/middleware retry backoff base in µs.
func (in *Injector) RetryLatencyUS() int64 {
	if in == nil {
		return 0
	}
	return in.cfg.RetryLatencyUS
}

// RemapLatencyUS returns the bad-sector remap penalty in µs.
func (in *Injector) RemapLatencyUS() int64 {
	if in == nil {
		return 0
	}
	return in.cfg.RemapLatencyUS
}

// SpinUpDelayUS returns the delayed-spin-up penalty in µs.
func (in *Injector) SpinUpDelayUS() int64 {
	if in == nil {
		return 0
	}
	return in.cfg.SpinUpDelayUS
}

// NetRetryDelayUS returns the retransmission backoff base in µs.
func (in *Injector) NetRetryDelayUS() int64 {
	if in == nil {
		return 0
	}
	return in.cfg.NetRetryDelayUS
}

// NodeStallUS returns the I/O-node stall length in µs.
func (in *Injector) NodeStallUS() int64 {
	if in == nil {
		return 0
	}
	return in.cfg.NodeStallUS
}
