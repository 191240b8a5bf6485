// Package generic exercises the summary walker across a call to a method
// of a generic type: the call site names the instantiated method, while
// the summary belongs to the generic declaration.
package generic

import (
	"sync"
	"time"
)

type stamps[T any] struct {
	mu   sync.Mutex
	last T
}

// stamp reads the wall clock under the type's mutex.
func (s *stamps[T]) stamp(v T) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.last = v
	return time.Now().UnixNano()
}

// caller reaches the wall clock and the mutex only through the generic
// method.
func caller(s *stamps[string]) int64 { return s.stamp("x") }
