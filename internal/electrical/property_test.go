package electrical

import (
	"math/rand"
	"testing"
)

func randomFlows(rng *rand.Rand, n, count int) []Flow {
	flows := make([]Flow, count)
	for i := range flows {
		src := rng.Intn(n)
		dst := rng.Intn(n)
		for dst == src {
			dst = rng.Intn(n)
		}
		flows[i] = Flow{Src: src, Dst: dst, Bits: float64(rng.Intn(1<<30) + 1)}
	}
	return flows
}

func TestMakespanMonotoneInFlowSize(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(14) + 2
		nw, err := NewSwitchedCluster(n, 100)
		if err != nil {
			t.Fatal(err)
		}
		flows := randomFlows(rng, n, rng.Intn(12)+1)
		mk1, _, err := flowTimes(nw, flows)
		if err != nil {
			t.Fatal(err)
		}
		bigger := append([]Flow(nil), flows...)
		for i := range bigger {
			bigger[i].Bits *= 2
		}
		mk2, _, err := flowTimes(nw, bigger)
		if err != nil {
			t.Fatal(err)
		}
		if mk2 < mk1-1e-12 {
			t.Fatalf("%s: doubling flow sizes reduced makespan %v -> %v", nw.Name(), mk1, mk2)
		}
	}
}

func TestAddingFlowNeverSpeedsUp(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(14) + 2
		nw, err := NewSwitchedCluster(n, 100)
		if err != nil {
			t.Fatal(err)
		}
		flows := randomFlows(rng, n, rng.Intn(10)+1)
		mk1, _, err := flowTimes(nw, flows)
		if err != nil {
			t.Fatal(err)
		}
		more := append(append([]Flow(nil), flows...), randomFlows(rng, n, 1)...)
		mk2, _, err := flowTimes(nw, more)
		if err != nil {
			t.Fatal(err)
		}
		if mk2 < mk1-1e-9 {
			t.Fatalf("%s: adding a flow reduced makespan %v -> %v", nw.Name(), mk1, mk2)
		}
	}
}

func TestRoutesStayInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(20) + 2
		nw, err := NewSwitchedCluster(n, 100)
		if err != nil {
			t.Fatal(err)
		}
		for pair := 0; pair < 20; pair++ {
			src := rng.Intn(n)
			dst := rng.Intn(n)
			if src == dst {
				continue
			}
			path := nw.route(src, dst, nil)
			if len(path) == 0 {
				t.Fatalf("%s: empty path %d->%d", nw.Name(), src, dst)
			}
			for _, l := range path {
				if l < 0 || l >= len(nw.capBps) {
					t.Fatalf("%s: link %d out of range (%d links)", nw.Name(), l, len(nw.capBps))
				}
			}
		}
	}
}

func TestPerFlowCompletionNeverExceedsMakespan(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	nw, err := NewSwitchedCluster(8, 100)
	if err != nil {
		t.Fatal(err)
	}
	flows := randomFlows(rng, 8, 12)
	mk, done, err := flowTimes(nw, flows)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range done {
		if d > mk+1e-12 || d <= 0 {
			t.Fatalf("flow %d completion %v vs makespan %v", i, d, mk)
		}
	}
}
