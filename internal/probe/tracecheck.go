package probe

import (
	"encoding/json"
	"fmt"
)

// CheckChromeTrace validates Chrome trace-event JSON bytes against the
// subset of the trace-event format this repo emits (WriteChromeTrace's
// output shape). It returns one problem line per violation and a one-line
// event-count summary. It is the assertion behind cmd/sddsdiag, for
// standalone trace files and bundle traces alike: the exporter's unit tests check
// structure in-process, this checks the actual bytes a user would load
// into chrome://tracing.
//
// Checks: the bytes are a JSON object with a traceEvents array; every
// event has a phase in {M, X, i}; complete (X) spans carry dur ≥ 0 and
// ts ≥ 0; instants carry ts ≥ 0; metadata names at least one thread_name
// track.
func CheckChromeTrace(data []byte) (problems []string, stats string, err error) {
	type traceEvent struct {
		Name  string          `json:"name"`
		Phase string          `json:"ph"`
		TS    *float64        `json:"ts"`
		Dur   *float64        `json:"dur"`
		PID   *int            `json:"pid"`
		TID   *int            `json:"tid"`
		Args  json.RawMessage `json:"args"`
	}
	var tf struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		return nil, "", fmt.Errorf("not a trace-event JSON object: %w", err)
	}
	if tf.TraceEvents == nil {
		return nil, "", fmt.Errorf("no traceEvents array")
	}
	var spans, instants, meta, threadNames int
	for i, ev := range tf.TraceEvents {
		at := func(format string, args ...any) {
			problems = append(problems, fmt.Sprintf("event %d (%s): ", i, ev.Name)+fmt.Sprintf(format, args...))
		}
		if ev.PID == nil || ev.TID == nil {
			at("missing pid/tid")
		}
		switch ev.Phase {
		case "M":
			meta++
			if ev.Name == "thread_name" {
				threadNames++
				var a struct {
					Name string `json:"name"`
				}
				if json.Unmarshal(ev.Args, &a) != nil || a.Name == "" {
					at("thread_name metadata without args.name")
				}
			}
		case "X":
			spans++
			if ev.TS == nil || *ev.TS < 0 {
				at("complete span without ts >= 0")
			}
			if ev.Dur == nil || *ev.Dur < 0 {
				at("complete span without dur >= 0")
			}
			if ev.Name == "" {
				at("unnamed span")
			}
		case "i":
			instants++
			if ev.TS == nil || *ev.TS < 0 {
				at("instant without ts >= 0")
			}
			if ev.Name == "" {
				at("unnamed instant")
			}
		default:
			at("unexpected phase %q", ev.Phase)
		}
	}
	if len(tf.TraceEvents) == 0 {
		problems = append(problems, "traceEvents is empty")
	}
	if threadNames == 0 {
		problems = append(problems, "no thread_name metadata: tracks would be anonymous")
	}
	stats = fmt.Sprintf("%d events: %d spans, %d instants, %d metadata, %d named tracks",
		len(tf.TraceEvents), spans, instants, meta, threadNames)
	return problems, stats, nil
}
