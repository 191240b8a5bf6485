package stripe

import "fmt"

// Layout describes round-robin striping of a file over the I/O nodes: byte
// ranges map to stripe units of StripeSize bytes, unit k living on node
// (k + FirstNode) mod NumNodes. The paper uses 64 KB units over 8 nodes
// (Table II).
type Layout struct {
	NumNodes   int
	StripeSize int64
	// FirstNode lets different files start their round-robin at different
	// nodes (PVFS distributes file starts), which spreads signatures.
	FirstNode int
}

// DefaultLayout returns the Table II layout: 8 I/O nodes, 64 KB stripes.
func DefaultLayout() Layout { return Layout{NumNodes: 8, StripeSize: 64 << 10} }

// Validate reports the first configuration problem, or nil.
func (l Layout) Validate() error {
	switch {
	case l.NumNodes <= 0:
		return fmt.Errorf("stripe: NumNodes %d must be positive", l.NumNodes)
	case l.StripeSize <= 0:
		return fmt.Errorf("stripe: StripeSize %d must be positive", l.StripeSize)
	case l.FirstNode < 0 || l.FirstNode >= l.NumNodes:
		return fmt.Errorf("stripe: FirstNode %d out of [0,%d)", l.FirstNode, l.NumNodes)
	}
	return nil
}

// NodeOf returns the I/O node holding stripe unit k.
func (l Layout) NodeOf(k int64) int {
	return int((k + int64(l.FirstNode)) % int64(l.NumNodes))
}

// UnitOf returns the stripe unit containing byte offset.
func (l Layout) UnitOf(offset int64) int64 { return offset / l.StripeSize }

// Chunk is the portion of an access that lands on one I/O node, expressed
// in that node's local coordinates: Unit is the global stripe-unit index
// (which the node can translate to a local block), Offset the byte offset
// inside the unit.
type Chunk struct {
	Node   int
	Unit   int64
	Offset int64
	Length int64
}

// Span returns the first and last stripe units the byte range
// [offset, offset+length) touches; last < first when the range is empty
// (non-positive length or negative offset).
func (l Layout) Span(offset, length int64) (first, last int64) {
	if length <= 0 || offset < 0 {
		return 0, -1
	}
	return l.UnitOf(offset), l.UnitOf(offset + length - 1)
}

// ChunkOf returns the piece of [offset, offset+length) that lies in stripe
// unit u, one of the units Span reports. Walking u over the span yields the
// chunks in file order without materialising them.
func (l Layout) ChunkOf(offset, length, u int64) Chunk {
	start := u * l.StripeSize
	lo := max(offset, start)
	hi := min(offset+length, start+l.StripeSize)
	return Chunk{
		Node:   l.NodeOf(u),
		Unit:   u,
		Offset: lo - start,
		Length: hi - lo,
	}
}

// Chunks splits the byte range [offset, offset+length) into per-stripe-unit
// chunks in file order. A non-positive length yields nil.
func (l Layout) Chunks(offset, length int64) []Chunk {
	first, last := l.Span(offset, length)
	if last < first {
		return nil
	}
	out := make([]Chunk, 0, last-first+1)
	for u := first; u <= last; u++ {
		out = append(out, l.ChunkOf(offset, length, u))
	}
	return out
}

// SignatureFor returns the I/O-node signature of the byte range — the set D
// of nodes a data access visits, "calculated based on the stripe size"
// (§IV-B).
func (l Layout) SignatureFor(offset, length int64) Signature {
	return l.SignatureInto(make([]uint64, Words(l.NumNodes)), offset, length)
}

// SignatureInto is SignatureFor over caller-provided storage: it overwrites
// the first Words(NumNodes) words of words and returns a signature backed
// by them, so many signatures can share one array.
func (l Layout) SignatureInto(words []uint64, offset, length int64) Signature {
	n := max(l.NumNodes, 0)
	s := Signature{n: n, words: words[:Words(n):Words(n)]}
	clear(s.words)
	first, last := l.Span(offset, length)
	if last < first {
		return s
	}
	if last-first+1 >= int64(l.NumNodes) {
		// The range wraps the whole ring.
		for i := 0; i < l.NumNodes; i++ {
			s.Set(i)
		}
		return s
	}
	for u := first; u <= last; u++ {
		s.Set(l.NodeOf(u))
	}
	return s
}
