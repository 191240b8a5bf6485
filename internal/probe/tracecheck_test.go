package probe

import (
	"strings"
	"testing"
)

const goodTrace = `{"traceEvents":[
 {"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"disks"}},
 {"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"disk 0"}},
 {"name":"idle","ph":"X","pid":0,"tid":0,"ts":0,"dur":1500},
 {"name":"io issue","ph":"i","pid":0,"tid":0,"ts":200,"s":"t","args":{"bytes":4096}}
],"displayTimeUnit":"ms"}`

func TestCheckChromeTraceGood(t *testing.T) {
	problems, stats, err := CheckChromeTrace([]byte(goodTrace))
	if err != nil || len(problems) != 0 {
		t.Fatalf("good trace rejected: %v %v", problems, err)
	}
	if !strings.Contains(stats, "1 spans, 1 instants") {
		t.Fatalf("stats = %q", stats)
	}
}

func TestCheckChromeTraceViolations(t *testing.T) {
	cases := []struct {
		name, json, want string
	}{
		{"not json", `[]`, "not a trace-event"},
		{"no array", `{}`, "no traceEvents"},
		{"empty", `{"traceEvents":[]}`, ""}, // caught via problems below
		{"bad phase", `{"traceEvents":[{"name":"x","ph":"B","pid":0,"tid":0,"ts":1}]}`, ""},
		{"negative dur", `{"traceEvents":[{"name":"x","ph":"X","pid":0,"tid":0,"ts":1,"dur":-5}]}`, ""},
		{"missing ts", `{"traceEvents":[{"name":"x","ph":"i","pid":0,"tid":0}]}`, ""},
		{"anonymous thread", `{"traceEvents":[{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{}}]}`, ""},
	}
	for _, c := range cases {
		problems, _, err := CheckChromeTrace([]byte(c.json))
		if c.want != "" {
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("%s: err = %v, want %q", c.name, err, c.want)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: hard error %v, want problem list", c.name, err)
		}
		if len(problems) == 0 {
			t.Fatalf("%s: no problems reported", c.name)
		}
	}
}
