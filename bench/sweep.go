package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"slices"
	"sort"
	"time"

	"sdds/internal/cluster"
	"sdds/internal/harness"
	"sdds/internal/power"
)

// sweepApps are the applications of the sweep plans: the repository's
// smoke-test pair, a small affine code and the out-of-core one whose
// working set overflows the storage caches. The six-app plan takes about
// 15 s a pass, too few passes a window for a steady median.
var sweepApps = []string{"sar", "madbench2"}

// sweepWorkers bounds the sweep's worker pool at the box's two cores.
const sweepWorkers = 2

func sweepConfig(o *options) harness.Config {
	return harness.Config{Scale: o.scale(0.05), Seed: o.seed, Apps: sweepApps}
}

func sweepInputs(o *options) ([]string, float64) { return sweepApps, o.scale(0.05) }

// sweep5pct regenerates every paper experiment for the sweep apps at 5%
// scale in one harness session: Prime over the deduplicated plan on two
// workers with the in-process compile cache, then Run and Render of every
// experiment from the cache.
func sweep5pct() *workload {
	return &workload{
		name:    "sweep-5pct",
		inputs:  sweepInputs,
		refName: "sweep-5pct",
		refKeys: []string{"records", "tables"},
		setup: func(ctx context.Context, o *options) (instance, error) {
			var golden map[string][]string
			if o.checkReference() {
				var err error
				if golden, err = loadGolden(o.root); err != nil {
					return nil, err
				}
			}
			return newSweepPass(sweepConfig(o), golden), nil
		},
	}
}

// sweepPass is one fresh session over the sweep plan.
type sweepPass struct {
	cfg  harness.Config
	plan []harness.Request
	sess *harness.Session
	// golden holds the expected fingerprint of each golden-shaped plan
	// request, by content key.
	golden map[string][]string
	// opOf maps a progress tag to its request's content key.
	opOf map[string]string

	// Progress state of the running pass; the session serializes calls.
	tr       *tracer
	prime    int
	start    time.Time
	runs     []time.Duration
	ends     []time.Duration // completion offsets from the start of Prime
	laneFree [sweepWorkers]time.Time
}

func newSweepPass(cfg harness.Config, golden map[string][]string) *sweepPass {
	p := &sweepPass{cfg: cfg, plan: harness.PlanRequests(harness.All(), cfg), opOf: map[string]string{}}
	for _, r := range p.plan {
		p.opOf[r.Tag()] = r.ContentKey()
	}
	if golden != nil {
		p.golden = map[string][]string{}
		for _, r := range p.plan {
			kind, err := power.ParseKind(r.Policy)
			if err != nil || r.Variant != "" {
				continue
			}
			if fp, ok := golden[cluster.FingerprintKey(r.App, kind, r.Scheduling)]; ok {
				p.golden[r.ContentKey()] = fp
			}
		}
	}
	p.sess = harness.NewSession(harness.SessionOptions{Workers: sweepWorkers, Progress: p.progress})
	return p
}

func (p *sweepPass) close() error { return nil }

// progress records every executed (non-hit) run: its latency, its
// completion time and, traced, a span on the first worker lane free when
// it started.
func (p *sweepPass) progress(ev harness.Progress) {
	if ev.Hit || ev.Err != nil {
		return
	}
	end := time.Now()
	p.runs = append(p.runs, ev.Elapsed)
	p.ends = append(p.ends, end.Sub(p.start))
	if p.tr == nil {
		return
	}
	start := end.Add(-ev.Elapsed)
	lane := 0
	for i, free := range p.laneFree {
		if !free.After(start) {
			lane = i
			break
		}
		if free.Before(p.laneFree[lane]) {
			lane = i
		}
	}
	p.laneFree[lane] = end
	p.tr.add("harness.run", p.prime, lane+1, p.opOf[ev.Key], start, end)
}

func (p *sweepPass) pass(ctx context.Context, tr *tracer) (*passOut, error) {
	out := newPassOut()
	p.tr = tr
	exps := harness.All()
	root := tr.begin("bench.pass", -1, 0, "")
	p.prime = tr.begin("harness.prime", root, 0, "")
	p.start = time.Now()
	err := p.sess.Prime(ctx, exps, p.cfg)
	prime := time.Since(p.start)
	tr.end(p.prime)
	if err != nil {
		return nil, err
	}
	renderStart := time.Now()
	tables := sha256.New()
	for _, e := range exps {
		sp := tr.begin("harness.render", root, 0, e.ID)
		res, err := p.sess.Run(ctx, e, p.cfg)
		if err != nil {
			return nil, err
		}
		text := res.Render()
		tr.end(sp)
		out.ops++
		// The compile table reports wall-clock compile times.
		if e.ID != "compile" {
			io.WriteString(tables, text)
		}
	}
	render := time.Since(renderStart)
	tr.end(root)
	out.digests["tables"] = hex.EncodeToString(tables.Sum(nil))

	for _, req := range p.plan {
		out.ops++
		res, rerr, ok := p.sess.Cached(req)
		if !ok || rerr != nil {
			return nil, fmt.Errorf("%s: not resolved by the sweep (%v)", req.Key(), rerr)
		}
		if want, ok := p.golden[req.ContentKey()]; ok && !slices.Equal(cluster.Fingerprint(res), want) {
			out.fail("%s: fingerprint differs from golden.json", req.Key())
		}
		out.entries = append(out.entries, entry{req, harness.NewRunRecord(res)})
	}
	out.runs = p.runs

	simulated, hits := p.sess.Stats()
	cc := p.sess.CompileCacheStats()
	var busy time.Duration
	for _, d := range p.runs {
		busy += d
	}
	l := out.layers
	l["harness.prime_frac"] = ratio(prime.Seconds(), (prime + render).Seconds())
	l["harness.render_frac"] = ratio(render.Seconds(), (prime + render).Seconds())
	l["harness.worker_busy_frac"] = ratio(busy.Seconds(), sweepWorkers*prime.Seconds())
	l["harness.tail_frac"] = ratio(tail(p.ends, sweepWorkers).Seconds(), prime.Seconds())
	l["harness.distinct_runs"] = float64(simulated)
	l["harness.cache_reads"] = float64(hits)
	l["harness.setup_groups"] = float64(p.sess.SetupGroups())
	cacheLayers(l, cc.Hits, cc.Misses)
	return out, nil
}

// cacheLayers records compile-cache counters; a fresh compile is a miss.
func cacheLayers(l map[string]float64, hits, misses int64) {
	l["compilecache.hits"] = float64(hits)
	l["compilecache.misses"] = float64(misses)
	l["compilecache.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	l["compiler.compiles"] = float64(misses)
}

// tail is the straggler cost of a pool of w workers: the time from the
// (n−w)-th completion to the last.
func tail(ends []time.Duration, w int) time.Duration {
	n := len(ends)
	if n <= w {
		return 0
	}
	s := append([]time.Duration(nil), ends...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[n-1] - s[n-1-w]
}

// directSweepDigest runs the sweep plan through a plain session and
// digests its records: the direct route sharded results must agree with.
func directSweepDigest(ctx context.Context, o *options) (map[string]string, error) {
	p := newSweepPass(sweepConfig(o), nil)
	if err := p.sess.Prime(ctx, harness.All(), p.cfg); err != nil {
		return nil, err
	}
	var es []entry
	for _, req := range p.plan {
		res, rerr, ok := p.sess.Cached(req)
		if !ok || rerr != nil {
			return nil, fmt.Errorf("%s: not resolved by the direct sweep (%v)", req.Key(), rerr)
		}
		es = append(es, entry{req, harness.NewRunRecord(res)})
	}
	d, err := recordsDigest(es)
	return map[string]string{"records": d}, err
}
