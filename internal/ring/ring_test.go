package ring

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(1); err == nil {
		t.Fatal("New(1) should fail")
	}
	if _, err := New(0); err == nil {
		t.Fatal("New(0) should fail")
	}
	top, err := New(2)
	if err != nil || top.N() != 2 {
		t.Fatalf("New(2) = %v, %v", top, err)
	}
}

func TestDist(t *testing.T) {
	top := MustNew(8)
	cases := []struct {
		src, dst int
		dir      Direction
		want     int
	}{
		{0, 3, CW, 3},
		{0, 3, CCW, 5},
		{3, 0, CW, 5},
		{3, 0, CCW, 3},
		{5, 5, CW, 0},
		{5, 5, CCW, 0},
		{7, 0, CW, 1},
		{0, 7, CCW, 1},
	}
	for _, c := range cases {
		if got := top.Dist(c.src, c.dst, c.dir); got != c.want {
			t.Errorf("Dist(%d,%d,%v) = %d, want %d", c.src, c.dst, c.dir, got, c.want)
		}
	}
}

func TestDistSumsToN(t *testing.T) {
	prop := func(nRaw uint8, a, b uint16) bool {
		n := int(nRaw)%62 + 2
		top := MustNew(n)
		src, dst := int(a)%n, int(b)%n
		if src == dst {
			return top.Dist(src, dst, CW) == 0 && top.Dist(src, dst, CCW) == 0
		}
		return top.Dist(src, dst, CW)+top.Dist(src, dst, CCW) == n
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShortestDir(t *testing.T) {
	top := MustNew(10)
	if d := top.ShortestDir(0, 3); d != CW {
		t.Fatalf("ShortestDir(0,3) = %v", d)
	}
	if d := top.ShortestDir(0, 8); d != CCW {
		t.Fatalf("ShortestDir(0,8) = %v", d)
	}
	// Tie at distance 5 prefers CW.
	if d := top.ShortestDir(0, 5); d != CW {
		t.Fatalf("ShortestDir(0,5) = %v, want CW on tie", d)
	}
}

func TestStepInverse(t *testing.T) {
	top := MustNew(9)
	for node := 0; node < 9; node++ {
		if got := top.Step(top.Step(node, CW), CCW); got != node {
			t.Fatalf("Step CW then CCW from %d gives %d", node, got)
		}
	}
}

func TestLinksWalkArc(t *testing.T) {
	top := MustNew(6)
	a := Arc{Src: 4, Dst: 1, Dir: CW} // 4->5->0->1
	links := top.Links(a)
	want := []Link{{4, CW}, {5, CW}, {0, CW}}
	if len(links) != len(want) {
		t.Fatalf("Links(%v) = %v", a, links)
	}
	for i := range want {
		if links[i] != want[i] {
			t.Fatalf("Links(%v)[%d] = %v, want %v", a, i, links[i], want[i])
		}
	}

	b := Arc{Src: 1, Dst: 4, Dir: CCW} // 1->0->5->4
	wantB := []Link{{1, CCW}, {0, CCW}, {5, CCW}}
	linksB := top.Links(b)
	for i := range wantB {
		if linksB[i] != wantB[i] {
			t.Fatalf("Links(%v)[%d] = %v, want %v", b, i, linksB[i], wantB[i])
		}
	}
}

func TestIndexDense(t *testing.T) {
	top := MustNew(5)
	seen := make(map[int]bool)
	for node := 0; node < 5; node++ {
		for _, d := range []Direction{CW, CCW} {
			idx := top.Index(Link{From: node, Dir: d})
			if idx < 0 || idx >= top.NumLinks() {
				t.Fatalf("Index out of range: %d", idx)
			}
			if seen[idx] {
				t.Fatalf("Index collision at %d", idx)
			}
			seen[idx] = true
		}
	}
	if len(seen) != top.NumLinks() {
		t.Fatalf("expected %d distinct indices, got %d", top.NumLinks(), len(seen))
	}
}

// Links returns the directed links the arc occupies, in traversal order.
func (t Topology) Links(a Arc) []Link {
	h := t.Hops(a)
	out := make([]Link, 0, h)
	cur := a.Src
	for i := 0; i < h; i++ {
		out = append(out, Link{From: cur, Dir: a.Dir})
		cur = t.Step(cur, a.Dir)
	}
	return out
}

// Conflict reports whether two arcs share at least one directed link.
func (t Topology) Conflict(a, b Arc) bool {
	if a.Dir != b.Dir {
		return false // opposite waveguides never conflict
	}
	// Arc a covers links starting at positions [Src, Src+hops) walking Dir.
	ha, hb := t.Hops(a), t.Hops(b)
	if ha == 0 || hb == 0 {
		return false
	}
	// Normalize to CW offsets of the link start nodes.
	var sa, sb int
	if a.Dir == CW {
		sa, sb = a.Src, b.Src
	} else {
		// CCW link leaving node x occupies "position" x; walking CCW visits
		// positions x, x-1, ... So convert to a CW-style interval by
		// reflecting: interval of length h starting at (x-h+1).
		sa = ((a.Src-ha+1)%t.n + t.n) % t.n
		sb = ((b.Src-hb+1)%t.n + t.n) % t.n
	}
	// Two circular intervals [sa, sa+ha), [sb, sb+hb) intersect?
	return circularIntervalsIntersect(sa, ha, sb, hb, t.n)
}

func circularIntervalsIntersect(s1, l1, s2, l2, n int) bool {
	if l1 >= n || l2 >= n {
		return true
	}
	d := ((s2-s1)%n + n) % n
	// interval 2 starts d positions after interval 1 (mod n)
	return d < l1 || n-d < l2
}

// conflictBrute computes arc conflict via explicit link sets.
func conflictBrute(top Topology, a, b Arc) bool {
	set := make(map[int]bool)
	top.VisitLinks(a, func(i int) { set[i] = true })
	hit := false
	top.VisitLinks(b, func(i int) {
		if set[i] {
			hit = true
		}
	})
	return hit
}

func TestConflictMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(14) + 2
		top := MustNew(n)
		randArc := func() Arc {
			src := rng.Intn(n)
			dst := rng.Intn(n)
			for dst == src {
				dst = rng.Intn(n)
			}
			d := CW
			if rng.Intn(2) == 1 {
				d = CCW
			}
			return Arc{Src: src, Dst: dst, Dir: d}
		}
		a, b := randArc(), randArc()
		want := conflictBrute(top, a, b)
		if got := top.Conflict(a, b); got != want {
			t.Fatalf("n=%d Conflict(%v, %v) = %v, brute force %v", n, a, b, got, want)
		}
		if got := top.Conflict(b, a); got != want {
			t.Fatalf("n=%d Conflict not symmetric for (%v, %v)", n, a, b)
		}
	}
}

func TestOppositeDirectionsNeverConflict(t *testing.T) {
	top := MustNew(8)
	a := Arc{Src: 0, Dst: 4, Dir: CW}
	b := Arc{Src: 4, Dst: 0, Dir: CCW}
	if top.Conflict(a, b) {
		t.Fatal("opposite waveguides must not conflict")
	}
}

func TestShortestArcHops(t *testing.T) {
	top := MustNew(12)
	for src := 0; src < 12; src++ {
		for dst := 0; dst < 12; dst++ {
			if src == dst {
				continue
			}
			a := top.ShortestArc(src, dst)
			if h := top.Hops(a); h > 6 {
				t.Fatalf("ShortestArc(%d,%d) has %d hops", src, dst, h)
			}
		}
	}
}

func TestPartitionContiguous(t *testing.T) {
	members := []int{0, 1, 2, 3, 4, 5, 6}
	groups := PartitionContiguous(members, 3)
	if len(groups) != 3 {
		t.Fatalf("got %d groups", len(groups))
	}
	wantMembers := [][]int{{0, 1, 2}, {3, 4, 5}, {6}}
	wantReps := []int{1, 4, 6}
	for i, g := range groups {
		if len(g.Members) != len(wantMembers[i]) {
			t.Fatalf("group %d members %v", i, g.Members)
		}
		for j := range g.Members {
			if g.Members[j] != wantMembers[i][j] {
				t.Fatalf("group %d members %v, want %v", i, g.Members, wantMembers[i])
			}
		}
		if g.Rep != wantReps[i] {
			t.Fatalf("group %d rep %d, want %d", i, g.Rep, wantReps[i])
		}
		if g.RepIndex() < 0 {
			t.Fatalf("group %d rep not a member", i)
		}
	}
}

func TestPartitionCoversAll(t *testing.T) {
	prop := func(nRaw uint8, mRaw uint8) bool {
		n := int(nRaw)%200 + 1
		m := int(mRaw)%16 + 2
		members := make([]int, n)
		for i := range members {
			members[i] = i * 3 // arbitrary sparse ids
		}
		groups := PartitionContiguous(members, m)
		total := 0
		prev := -1
		for _, g := range groups {
			if len(g.Members) == 0 || len(g.Members) > m {
				return false
			}
			for _, mm := range g.Members {
				if mm <= prev {
					return false // order must be preserved
				}
				prev = mm
				total++
			}
		}
		return total == n
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMiddle(t *testing.T) {
	if Middle([]int{5}) != 5 {
		t.Fatal("Middle single")
	}
	if Middle([]int{5, 9}) != 5 {
		t.Fatal("Middle pair should favor lower index")
	}
	if Middle([]int{5, 9, 11}) != 9 {
		t.Fatal("Middle triple")
	}
	if Middle([]int{1, 2, 3, 4}) != 2 {
		t.Fatal("Middle quad")
	}
}

func TestAllNodes(t *testing.T) {
	top := MustNew(4)
	nodes := top.AllNodes()
	for i, n := range nodes {
		if n != i {
			t.Fatalf("AllNodes[%d] = %d", i, n)
		}
	}
}

func TestDirectionHelpers(t *testing.T) {
	if CW.Opposite() != CCW || CCW.Opposite() != CW {
		t.Fatal("Opposite broken")
	}
	if CW.String() != "cw" || CCW.String() != "ccw" {
		t.Fatal("String broken")
	}
}
