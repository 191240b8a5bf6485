// Package literal exercises the summary walker inside &T{...} literals:
// field values are evaluated on every call, so their effects belong to the
// enclosing function, while the literal itself is one allocation.
package literal

import "time"

type stamped struct {
	at   int64
	tags []string
}

func helper() int64 { return time.Now().UnixNano() }

// build reaches the wall clock only through a field of the returned
// literal.
func build() *stamped { return &stamped{at: helper()} }

// direct reads the wall clock straight into a literal field, next to a
// nested slice literal.
func direct() *stamped {
	return &stamped{tags: []string{"t"}, at: time.Now().UnixNano()}
}
