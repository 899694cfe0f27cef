package collective

import (
	"reflect"
	"testing"
)

// TestCompactRoundTrip: boxed -> compact -> boxed is the identity, for every
// classical algorithm over a spread of node counts and buffer sizes.
func TestCompactRoundTrip(t *testing.T) {
	builders := map[string]func(n, elems int) (*Schedule, error){
		"ring":     RingAllReduce,
		"rd":       RecursiveDoubling,
		"hd":       HalvingDoubling,
		"binomial": BinomialTree,
		"a2a":      AllToAllAllReduce,
	}
	for name, build := range builders {
		for _, n := range []int{2, 3, 5, 8, 16, 23} {
			for _, elems := range []int{0, 1, 7, 64, 1000} {
				s, err := build(n, elems)
				if err != nil {
					t.Fatalf("%s n=%d elems=%d: %v", name, n, elems, err)
				}
				cs := s.Compact()
				if got, want := cs.NumSteps(), s.NumSteps(); got != want {
					t.Fatalf("%s n=%d: compact steps %d, want %d", name, n, got, want)
				}
				back := cs.Expand()
				if !reflect.DeepEqual(normalize(back), normalize(s)) {
					t.Fatalf("%s n=%d elems=%d: round trip diverged", name, n, elems)
				}
				cs.Release()
			}
		}
	}
}

// normalize maps empty transfer slices to nil so DeepEqual ignores the
// nil-vs-empty distinction Expand cannot reconstruct.
func normalize(s *Schedule) *Schedule {
	c := *s
	c.Steps = append([]Step(nil), s.Steps...)
	for i := range c.Steps {
		if len(c.Steps[i].Transfers) == 0 {
			c.Steps[i].Transfers = nil
		}
	}
	return &c
}

// TestCompactValidateMatchesBoxed: the columnar validator accepts and
// rejects exactly what the boxed validator does.
func TestCompactValidateMatchesBoxed(t *testing.T) {
	good, err := RingAllReduce(6, 36)
	if err != nil {
		t.Fatal(err)
	}
	if err := good.Compact().Validate(); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}

	bad := func(mutate func(*Schedule)) *CompactSchedule {
		s, err := RingAllReduce(4, 16)
		if err != nil {
			t.Fatal(err)
		}
		mutate(s)
		return s.Compact()
	}
	cases := map[string]*CompactSchedule{
		"self-transfer": bad(func(s *Schedule) {
			s.Steps[0].Transfers[0].Dst = s.Steps[0].Transfers[0].Src
		}),
		"out-of-range node": bad(func(s *Schedule) {
			s.Steps[0].Transfers[0].Dst = 99
		}),
		"region outside buffer": bad(func(s *Schedule) {
			s.Steps[0].Transfers[0].Region.Len = 1 << 20
		}),
		"negative width": bad(func(s *Schedule) {
			s.Steps[0].Transfers[0].Width = -1
		}),
		"conflicting copy writes": bad(func(s *Schedule) {
			last := len(s.Steps) - 1
			tr := s.Steps[last].Transfers[0]
			tr.Src = (tr.Src + 2) % 4
			if tr.Src == tr.Dst {
				tr.Src = (tr.Src + 1) % 4
			}
			s.Steps[last].Transfers = append(s.Steps[last].Transfers, tr)
		}),
	}
	for name, cs := range cases {
		boxedErr := cs.Expand().Validate()
		compactErr := cs.Validate()
		if boxedErr == nil {
			t.Fatalf("%s: boxed validator accepted the mutation", name)
		}
		if compactErr == nil {
			t.Fatalf("%s: compact validator accepted what boxed rejects", name)
		}
	}
}

// TestBuilderPoolReuse: a released schedule's arrays feed the next build.
func TestBuilderPoolReuse(t *testing.T) {
	first, err := RingAllReduce(8, 64)
	if err != nil {
		t.Fatal(err)
	}
	cs := first.Compact()
	if err := cs.Validate(); err != nil {
		t.Fatal(err)
	}
	cs.Release()
	// A fresh build after release must be fully coherent (no stale state).
	boxed, err := RingAllReduce(5, 10)
	if err != nil {
		t.Fatal(err)
	}
	cs2 := boxed.Compact()
	defer cs2.Release()
	if err := cs2.Validate(); err != nil {
		t.Fatalf("schedule built from pooled arrays invalid: %v", err)
	}
	if !reflect.DeepEqual(normalize(cs2.Expand()), normalize(boxed)) {
		t.Fatal("pooled rebuild diverges from boxed")
	}
}
