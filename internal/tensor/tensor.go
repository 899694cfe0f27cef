// Package tensor provides the small amount of buffer math the collective
// schedules need: contiguous regions of a flat gradient vector, elementwise
// reductions over regions, deterministic fill patterns used by correctness
// tests, and tolerant comparison helpers.
//
// Buffers are []float64. Correctness tests use integer-valued fills so that
// sums are exact (no floating-point reassociation error) up to 2^53.
package tensor

import "fmt"

// Region identifies a contiguous span [Offset, Offset+Len) of a flat buffer,
// in elements.
type Region struct {
	Offset int
	Len    int
}

// End returns the exclusive upper bound of the region.
func (r Region) End() int { return r.Offset + r.Len }

// Valid reports whether the region lies within a buffer of n elements.
func (r Region) Valid(n int) bool {
	return r.Offset >= 0 && r.Len >= 0 && r.Offset+r.Len <= n
}

func (r Region) String() string {
	return fmt.Sprintf("[%d:%d)", r.Offset, r.Offset+r.Len)
}

// Overlaps reports whether two regions share at least one element.
func (r Region) Overlaps(o Region) bool {
	return r.Len > 0 && o.Len > 0 && r.Offset < o.End() && o.Offset < r.End()
}

// Chunks partitions n elements into parts contiguous regions whose lengths
// differ by at most one (the first n%parts regions get the extra element).
// It covers [0, n) exactly. parts must be >= 1; n may be smaller than parts,
// in which case trailing regions are empty.
func Chunks(n, parts int) []Region {
	if parts < 1 {
		panic(fmt.Sprintf("tensor: Chunks called with parts=%d", parts))
	}
	if n < 0 {
		panic(fmt.Sprintf("tensor: Chunks called with n=%d", n))
	}
	out := make([]Region, parts)
	base := n / parts
	extra := n % parts
	off := 0
	for i := range out {
		l := base
		if i < extra {
			l++
		}
		out[i] = Region{Offset: off, Len: l}
		off += l
	}
	return out
}

// Halves splits a region into two regions of as-equal-as-possible length,
// the first taking the extra element when the length is odd.
func Halves(r Region) (Region, Region) {
	l0 := (r.Len + 1) / 2
	return Region{Offset: r.Offset, Len: l0},
		Region{Offset: r.Offset + l0, Len: r.Len - l0}
}

// AddRegion accumulates src's region into dst's same region: dst[r] += src[r].
func AddRegion(dst, src []float64, r Region) {
	d := dst[r.Offset:r.End()]
	s := src[r.Offset:r.End()]
	for i := range d {
		d[i] += s[i]
	}
}

// Add accumulates src into dst elementwise. Lengths must match.
func Add(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: Add length mismatch %d != %d", len(dst), len(src)))
	}
	for i := range dst {
		dst[i] += src[i]
	}
}

// Scale multiplies every element of buf by f.
func Scale(buf []float64, f float64) {
	for i := range buf {
		buf[i] *= f
	}
}

// Fill writes a deterministic per-node pattern: buf[i] = pattern(node, i).
// The default integer pattern keeps sums exact for up to ~10^6 nodes.
func Fill(buf []float64, node int) {
	for i := range buf {
		buf[i] = PatternValue(node, i)
	}
}

// PatternValue is the canonical deterministic test pattern. It is integer
// valued so reductions are exact regardless of the order of addition.
func PatternValue(node, i int) float64 {
	return float64((node+1)*(i%97+1) + i%13)
}

// ExpectedSum returns what element i of an all-reduced buffer must equal when
// every node n filled its buffer with PatternValue(n, i).
func ExpectedSum(n, i int) float64 {
	// sum over node=0..n-1 of (node+1)*(i%97+1) + i%13
	// = (i%97+1) * n(n+1)/2 + n*(i%13)
	return float64(i%97+1)*float64(n)*float64(n+1)/2 + float64(n)*float64(i%13)
}

// Clone returns a copy of buf.
func Clone(buf []float64) []float64 {
	out := make([]float64, len(buf))
	copy(out, buf)
	return out
}
