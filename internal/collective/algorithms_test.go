package collective

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"wrht/internal/tensor"
)

// AllToAllAllReduce builds the one-step (plus local reduction) all-reduce in
// which every node sends its full buffer to every other node: the primitive
// Wrht uses among the final representatives, kept as a small correctness
// fixture for the schedule-form tests.
func AllToAllAllReduce(n, elems int) (*Schedule, error) {
	if n < 2 {
		return nil, fmt.Errorf("collective: all-to-all needs n >= 2, got %d", n)
	}
	s := &Schedule{Algorithm: "all-to-all", N: n, Elems: elems}
	st := Step{Label: "all-to-all exchange"}
	full := tensor.Region{Offset: 0, Len: elems}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			st.Transfers = append(st.Transfers, Transfer{
				Src: src, Dst: dst, Region: full, Op: OpReduce,
			})
		}
	}
	s.Steps = append(s.Steps, st)
	return s, nil
}

// Every algorithm constructor, paired with the node counts it supports.
type algCase struct {
	name  string
	build func(n, elems int) (*Schedule, error)
}

func allAlgorithms() []algCase {
	return []algCase{
		{"ring", RingAllReduce},
		{"recursive-doubling", RecursiveDoubling},
		{"halving-doubling", HalvingDoubling},
		{"binomial-tree", BinomialTree},
		{"all-to-all", AllToAllAllReduce},
	}
}

func TestAllReduceCorrectnessSweep(t *testing.T) {
	elemsCases := []int{1, 2, 7, 16, 97, 256}
	for _, alg := range allAlgorithms() {
		for n := 2; n <= 20; n++ {
			for _, elems := range elemsCases {
				s, err := alg.build(n, elems)
				if err != nil {
					t.Fatalf("%s(n=%d, elems=%d): %v", alg.name, n, elems, err)
				}
				if err := VerifyAllReduce(s); err != nil {
					t.Fatalf("%s: %v", alg.name, err)
				}
			}
		}
	}
}

func TestAllReduceCorrectnessProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	algs := allAlgorithms()
	prop := func(nRaw uint8, elemsRaw uint16, algRaw uint8) bool {
		n := int(nRaw)%63 + 2
		elems := int(elemsRaw) % 512
		alg := algs[int(algRaw)%len(algs)]
		s, err := alg.build(n, elems)
		if err != nil {
			return false
		}
		return VerifyAllReduce(s) == nil
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRingStepCount(t *testing.T) {
	for _, n := range []int{2, 3, 8, 17, 128} {
		s, err := RingAllReduce(n, n*4)
		if err != nil {
			t.Fatal(err)
		}
		if s.NumSteps() != 2*(n-1) {
			t.Fatalf("ring(%d) steps = %d, want %d", n, s.NumSteps(), 2*(n-1))
		}
	}
}

func TestRecursiveDoublingStepCount(t *testing.T) {
	cases := map[int]int{2: 1, 4: 2, 8: 3, 1024: 10} // power of two: log2(n)
	for n, want := range cases {
		s, err := RecursiveDoubling(n, 8)
		if err != nil {
			t.Fatal(err)
		}
		if s.NumSteps() != want {
			t.Fatalf("rd(%d) steps = %d, want %d", n, s.NumSteps(), want)
		}
	}
	// Non-power-of-two adds fold + unfold.
	s, err := RecursiveDoubling(6, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumSteps() != 2+2 {
		t.Fatalf("rd(6) steps = %d, want 4", s.NumSteps())
	}
}

func TestHalvingDoublingBandwidthOptimal(t *testing.T) {
	// For power-of-two n, HD moves 2*(n-1)/n*elems per node; total traffic
	// n * that = 2*(n-1)*elems, like ring.
	for _, n := range []int{2, 4, 8, 16} {
		elems := 64 * n
		s, err := HalvingDoubling(n, elems)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(2 * (n - 1) * elems)
		if got := s.TotalTrafficElems(); got != want {
			t.Fatalf("hd(%d,%d) traffic = %d, want %d", n, elems, got, want)
		}
		if got, want := s.NumSteps(), 2*CeilLog2(n); got != want {
			t.Fatalf("hd(%d) steps = %d, want %d", n, got, want)
		}
	}
}

func TestBinomialTreeStepCount(t *testing.T) {
	cases := map[int]int{2: 2, 3: 4, 8: 6, 9: 8, 1000: 20}
	for n, want := range cases {
		s, err := BinomialTree(n, 4)
		if err != nil {
			t.Fatal(err)
		}
		if s.NumSteps() != want {
			t.Fatalf("binomial(%d) steps = %d, want %d", n, s.NumSteps(), want)
		}
	}
}

func TestConstructorsRejectTinyN(t *testing.T) {
	for _, alg := range allAlgorithms() {
		if _, err := alg.build(1, 8); err == nil {
			t.Fatalf("%s accepted n=1", alg.name)
		}
	}
}

func TestSchedulesValidateCleanRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(30) + 2
		elems := rng.Intn(200)
		for _, alg := range allAlgorithms() {
			s, err := alg.build(n, elems)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("%s(n=%d,elems=%d): %v", alg.name, n, elems, err)
			}
		}
	}
}

func TestLargeScaleSpotCheck(t *testing.T) {
	// The Figure-2 scales must at least construct + validate quickly.
	for _, n := range []int{128, 256, 512, 1024} {
		for _, alg := range allAlgorithms() {
			if alg.name == "all-to-all" && n > 128 {
				continue // quadratic transfers; exercised at 128 only
			}
			s, err := alg.build(n, 2048)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("%s(%d): %v", alg.name, n, err)
			}
		}
	}
	// Full data-level verification at one large scale.
	s, err := RingAllReduce(256, 512)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAllReduce(s); err != nil {
		t.Fatal(err)
	}
}

func TestCeilLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := CeilLog2(n); got != want {
			t.Fatalf("CeilLog2(%d) = %d, want %d", n, got, want)
		}
	}
}
