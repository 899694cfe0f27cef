package tensor

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestChunksCoverExactly(t *testing.T) {
	cases := []struct{ n, parts int }{
		{0, 1}, {1, 1}, {5, 2}, {7, 3}, {10, 10}, {3, 5}, {1000, 7}, {97, 96},
	}
	for _, c := range cases {
		regs := Chunks(c.n, c.parts)
		if len(regs) != c.parts {
			t.Fatalf("Chunks(%d,%d): got %d regions", c.n, c.parts, len(regs))
		}
		off := 0
		for i, r := range regs {
			if r.Offset != off {
				t.Fatalf("Chunks(%d,%d): region %d offset %d, want %d", c.n, c.parts, i, r.Offset, off)
			}
			if r.Len < 0 {
				t.Fatalf("negative length region %v", r)
			}
			off = r.End()
		}
		if off != c.n {
			t.Fatalf("Chunks(%d,%d): covered %d elements", c.n, c.parts, off)
		}
	}
}

func TestChunksBalanced(t *testing.T) {
	// Lengths differ by at most one.
	prop := func(n uint16, parts uint8) bool {
		p := int(parts)%64 + 1
		regs := Chunks(int(n), p)
		min, max := int(n)+1, -1
		for _, r := range regs {
			if r.Len < min {
				min = r.Len
			}
			if r.Len > max {
				max = r.Len
			}
		}
		return max-min <= 1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChunksPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Chunks(1,0) did not panic")
		}
	}()
	Chunks(1, 0)
}

func TestHalves(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 8, 9} {
		r := Region{Offset: 5, Len: n}
		a, b := Halves(r)
		if a.Offset != r.Offset || b.End() != r.End() || a.Len+b.Len != n {
			t.Fatalf("Halves(%v) = %v,%v", r, a, b)
		}
		if a.Len-b.Len < 0 || a.Len-b.Len > 1 {
			t.Fatalf("Halves(%v) unbalanced: %v %v", r, a, b)
		}
	}
}

func TestRegionOverlaps(t *testing.T) {
	cases := []struct {
		a, b Region
		want bool
	}{
		{Region{0, 5}, Region{5, 5}, false},
		{Region{0, 5}, Region{4, 1}, true},
		{Region{0, 0}, Region{0, 5}, false},
		{Region{2, 3}, Region{0, 10}, true},
		{Region{7, 2}, Region{3, 4}, false},
	}
	for _, c := range cases {
		if got := c.a.Overlaps(c.b); got != c.want {
			t.Errorf("%v.Overlaps(%v)=%v want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Overlaps(c.a); got != c.want {
			t.Errorf("symmetry: %v.Overlaps(%v)=%v want %v", c.b, c.a, got, c.want)
		}
	}
}

func TestAddRegion(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{10, 20, 30, 40, 50}
	AddRegion(a, b, Region{1, 3})
	want := []float64{1, 22, 33, 44, 5}
	if !slices.Equal(a, want) {
		t.Fatalf("AddRegion: got %v want %v", a, want)
	}
}

func TestExpectedSumMatchesBruteForce(t *testing.T) {
	const n, elems = 17, 300
	acc := make([]float64, elems)
	buf := make([]float64, elems)
	for node := 0; node < n; node++ {
		Fill(buf, node)
		Add(acc, buf)
	}
	for i := 0; i < elems; i++ {
		if acc[i] != ExpectedSum(n, i) {
			t.Fatalf("element %d: brute force %v, ExpectedSum %v", i, acc[i], ExpectedSum(n, i))
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	a := []float64{1, 2, 3}
	c := Clone(a)
	c[0] = 99
	if a[0] != 1 {
		t.Fatal("Clone aliases input")
	}
}

func TestScale(t *testing.T) {
	a := []float64{2, 4}
	Scale(a, 0.5)
	if !slices.Equal(a, []float64{1, 2}) {
		t.Fatalf("Scale: %v", a)
	}
}

func TestAddLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add with mismatched lengths did not panic")
		}
	}()
	Add([]float64{1}, []float64{1, 2})
}

func TestChunksRandomizedCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(5000)
		parts := rng.Intn(64) + 1
		regs := Chunks(n, parts)
		seen := make([]bool, n)
		for _, r := range regs {
			for i := r.Offset; i < r.End(); i++ {
				if seen[i] {
					t.Fatalf("n=%d parts=%d: element %d covered twice", n, parts, i)
				}
				seen[i] = true
			}
		}
		for i, s := range seen {
			if !s {
				t.Fatalf("n=%d parts=%d: element %d not covered", n, parts, i)
			}
		}
	}
}
