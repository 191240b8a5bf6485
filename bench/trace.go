package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by bench code around the
// layer's public function. Parent links the span that caused it; Op is the
// content key of the run it belongs to. DupOf marks a re-run of work that
// happens inside another span (the traced golden pass re-runs slack
// analysis and scheduling to measure what a compile spends in each): the
// duplicate's duration is taken out of that span's self time.
type span struct {
	Name   string
	Op     string
	Lane   int
	Parent int
	DupOf  int
	Start  time.Duration
	End    time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced passes call the same code.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span now and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, lane int, op string) int {
	return t.beginDup(name, parent, -1, lane, op)
}

// beginDup opens a span that re-measures part of span dupOf.
func (t *tracer) beginDup(name string, parent, dupOf, lane int, op string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Lane: lane, Parent: parent, DupOf: dupOf, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose bounds were observed elsewhere (a progress
// event, an HTTP round trip).
func (t *tracer) add(name string, parent, lane int, op string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Op: op, Lane: lane, Parent: parent, DupOf: -1,
		Start: start.Sub(t.origin), End: end.Sub(t.origin)})
	t.mu.Unlock()
}

// mark returns the index the next span will get, so a pass can select its
// own spans afterwards.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// since returns a copy of the spans recorded from mark on.
func (t *tracer) since(mark int) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[mark:]...)
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its children cover and minus its duplicates' durations. Parent and DupOf
// ids are absolute, so base is the id of spans[0]. Over a single-lane pass
// the self times add up to the root's duration less the duplicated work.
func selfTimes(spans []span, base int) map[string]time.Duration {
	children := make(map[int][]span)
	dups := make(map[int]time.Duration)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
		if s.DupOf >= 0 {
			dups[s.DupOf] += s.dur()
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		id := base + i
		out[s.Name] += s.dur() - covered(children[id]) - dups[id]
	}
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	iv := append([]span(nil), spans...)
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var total time.Duration
	cur := iv[0]
	for _, s := range iv[1:] {
		if s.Start > cur.End {
			total += cur.dur()
			cur = s
			continue
		}
		if s.End > cur.End {
			cur.End = s.End
		}
	}
	return total + cur.dur()
}

// chromeEvent is one Chrome trace-event entry (metadata or complete span).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  *int64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome renders every span as a Chrome trace event on one track per
// lane, with the op and the parent's name as arguments.
func (t *tracer) writeChrome(w io.Writer, process string) error {
	spans := t.since(0)
	lanes := map[int]bool{}
	for _, s := range spans {
		lanes[s.Lane] = true
	}
	ids := make([]int, 0, len(lanes))
	for l := range lanes {
		ids = append(ids, l)
	}
	sort.Ints(ids)
	events := []chromeEvent{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": process}}}
	for _, l := range ids {
		name := "main"
		if l > 0 {
			name = fmt.Sprintf("worker %d", l)
		}
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: l, Args: map[string]any{"name": name}})
	}
	for _, s := range spans {
		dur := s.dur().Microseconds()
		args := map[string]any{}
		if s.Op != "" {
			args["op"] = s.Op
		}
		if s.Parent >= 0 {
			args["parent"] = spans[s.Parent].Name
		}
		events = append(events, chromeEvent{Name: s.Name, Ph: "X", Ts: s.Start.Microseconds(), Dur: &dur, Pid: 1, Tid: s.Lane, Args: args})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
