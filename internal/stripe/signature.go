// Package stripe implements the parallel-file-system data layout the paper
// assumes (§II, Fig. 1): files are divided into fixed-size stripe units and
// distributed round-robin across I/O nodes. It also provides the I/O-node
// Signature bitset of §IV-B together with the similarity / difference /
// distance metrics the scheduling algorithms optimize.
package stripe

import (
	"fmt"
	"math/bits"
	"strings"
)

// Signature marks the set of I/O nodes touched by a data access: bit i is 1
// iff I/O node i is used (the η vector of §IV-B).
type Signature struct {
	n     int
	words []uint64
}

// NewSignature returns an empty signature over n I/O nodes.
func NewSignature(n int) Signature {
	n = max(n, 0)
	return Signature{n: n, words: make([]uint64, Words(n))}
}

// Words returns how many 64-bit words back a signature over n I/O nodes.
func Words(n int) int { return (max(n, 0) + 63) / 64 }

// SignatureOf returns a signature over n nodes with the given bits set.
func SignatureOf(n int, nodes ...int) Signature {
	s := NewSignature(n)
	for _, i := range nodes {
		s.Set(i)
	}
	return s
}

// Len returns the number of I/O nodes the signature covers.
func (s Signature) Len() int { return s.n }

// Set marks node i as used. Out-of-range indices are ignored.
func (s Signature) Set(i int) {
	if i < 0 || i >= s.n {
		return
	}
	s.words[i/64] |= 1 << (uint(i) % 64)
}

// Get reports whether node i is used.
func (s Signature) Get(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/64]&(1<<(uint(i)%64)) != 0
}

// Clone returns an independent copy.
func (s Signature) Clone() Signature {
	c := Signature{n: s.n, words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// OrInPlace merges o into s (the group-active-signature update G ← G | g).
// Signatures must cover the same node count.
func (s Signature) OrInPlace(o Signature) {
	for i := range s.words {
		if i < len(o.words) {
			s.words[i] |= o.words[i]
		}
	}
}

// Or returns the union of two signatures.
func (s Signature) Or(o Signature) Signature {
	c := s.Clone()
	c.OrInPlace(o)
	return c
}

// Count returns the number of used nodes.
func (s Signature) Count() int {
	total := 0
	for _, w := range s.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// Empty reports whether no node is used.
func (s Signature) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports exact equality (same node count and same bits).
func (s Signature) Equal(o Signature) bool {
	if s.n != o.n {
		return false
	}
	for i := range s.words {
		if s.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// Nodes returns the indices of the used nodes in ascending order.
func (s Signature) Nodes() []int {
	return s.AppendNodes(make([]int, 0, s.Count()))
}

// AppendNodes appends the indices of the used nodes to dst in ascending
// order, so a caller reusing dst lists nodes without allocating.
func (s Signature) AppendNodes(dst []int) []int {
	for i := 0; i < s.n; i++ {
		if s.Get(i) {
			dst = append(dst, i)
		}
	}
	return dst
}

// Similarity returns the number of positions where both signatures have a 1
// — the count of active I/O nodes that will be reused (§IV-B).
func (s Signature) Similarity(o Signature) int {
	total := 0
	for i := range s.words {
		var w uint64
		if i < len(o.words) {
			w = o.words[i]
		}
		total += bits.OnesCount64(s.words[i] & w)
	}
	return total
}

// Difference returns the number of positions where the signatures differ —
// the count of additional I/O nodes that would have to be turned on (§IV-B).
func (s Signature) Difference(o Signature) int {
	total := 0
	for i := range s.words {
		var w uint64
		if i < len(o.words) {
			w = o.words[i]
		}
		total += bits.OnesCount64(s.words[i] ^ w)
	}
	return total
}

// Distance implements the paper's metric:
//
//	distance(g1, g2) = n − similarity(g1, g2) + difference(g1, g2)
//
// which simultaneously rewards reuse of already-active nodes and penalizes
// activating additional ones.
func (s Signature) Distance(o Signature) int {
	return s.n - s.Similarity(o) + s.Difference(o)
}

// InverseDistance returns 1/distance, with the paper's special case that a
// zero distance yields 2.
func (s Signature) InverseDistance(o Signature) float64 {
	d := s.Distance(o)
	if d == 0 {
		return 2
	}
	return 1 / float64(d)
}

// String renders the bit vector as in Fig. 9, e.g. "0010000000100000".
func (s Signature) String() string {
	var b strings.Builder
	b.Grow(s.n)
	for i := 0; i < s.n; i++ {
		if s.Get(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// ParseSignature parses a string of 0s and 1s (the Fig. 9 format).
func ParseSignature(bitstr string) (Signature, error) {
	s := NewSignature(len(bitstr))
	for i, c := range bitstr {
		switch c {
		case '1':
			s.Set(i)
		case '0':
		default:
			return Signature{}, fmt.Errorf("stripe: invalid signature char %q at %d", c, i)
		}
	}
	return s, nil
}
