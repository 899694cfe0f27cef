package electrical

import (
	"math"
	"math/rand"
	"testing"
)

func almost(a, b, rel float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))
}

// flowTimes simulates the flows all starting at t=0 on a fresh solver and
// returns the makespan and each flow's completion time.
func flowTimes(nw *Network, flows []Flow) (float64, []float64, error) {
	s := NewSolver(nw)
	mk, err := s.run(flows)
	return mk, s.doneAt, err
}

func TestSwitchedClusterSingleFlow(t *testing.T) {
	nw, err := NewSwitchedCluster(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	mk, done, err := flowTimes(nw, []Flow{{Src: 0, Dst: 1, Bits: 100e9}})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(mk, 1.0, 1e-9) || !almost(done[0], 1.0, 1e-9) {
		t.Fatalf("100 Gb over 100 Gb/s should take 1 s, got %v", mk)
	}
}

func TestSwitchedClusterFanInShares(t *testing.T) {
	// Two flows into the same destination share its downlink: each gets 50.
	nw, _ := NewSwitchedCluster(4, 100)
	mk, done, err := flowTimes(nw, []Flow{
		{Src: 0, Dst: 2, Bits: 100e9},
		{Src: 1, Dst: 2, Bits: 100e9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(mk, 2.0, 1e-9) {
		t.Fatalf("fan-in of two equal flows should take 2 s, got %v", mk)
	}
	if !almost(done[0], 2.0, 1e-9) || !almost(done[1], 2.0, 1e-9) {
		t.Fatalf("per-flow times %v", done)
	}
}

func TestMaxMinShortFlowReleasesBandwidth(t *testing.T) {
	// A short and a long flow share a downlink; when the short one finishes
	// the long one speeds up: 50 Gb/s for 1 s (50 Gb done), then 100 Gb/s
	// for the remaining 50 Gb → total 1.5 s.
	nw, _ := NewSwitchedCluster(4, 100)
	mk, done, err := flowTimes(nw, []Flow{
		{Src: 0, Dst: 2, Bits: 50e9},
		{Src: 1, Dst: 2, Bits: 100e9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(done[0], 1.0, 1e-6) {
		t.Fatalf("short flow done at %v, want 1 s", done[0])
	}
	if !almost(mk, 1.5, 1e-6) {
		t.Fatalf("makespan %v, want 1.5 s", mk)
	}
}

func TestPermutationTrafficIsNonBlocking(t *testing.T) {
	// RD/E-Ring traffic is a permutation each step: on a non-blocking
	// switch every flow gets full line rate.
	const n = 64
	nw, _ := NewSwitchedCluster(n, 100)
	flows := make([]Flow, n)
	for i := range flows {
		flows[i] = Flow{Src: i, Dst: (i + 7) % n, Bits: 1e9}
	}
	mk, _, err := flowTimes(nw, flows)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(mk, 0.01, 1e-6) {
		t.Fatalf("permutation makespan %v, want 10 ms", mk)
	}
}

func TestMaxMinFairnessProperty(t *testing.T) {
	// Property: the max-min allocation never oversubscribes a link, and
	// every flow is bottlenecked somewhere (can't be increased unilaterally).
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(14) + 2
		nw, err := NewSwitchedCluster(n, 100)
		if err != nil {
			t.Fatal(err)
		}
		nf := rng.Intn(20) + 1
		flows := make([]Flow, nf)
		paths := make([][]int, nf)
		active := make([]bool, nf)
		for i := range flows {
			src := rng.Intn(n)
			dst := rng.Intn(n)
			for dst == src {
				dst = rng.Intn(n)
			}
			flows[i] = Flow{Src: src, Dst: dst, Bits: 1e9}
			paths[i] = nw.route(src, dst, nil)
			active[i] = true
		}
		s := NewSolver(nw)
		s.grow(nf)
		s.pathOff = append(s.pathOff, 0)
		for i := range flows {
			s.pathArena = append(s.pathArena, paths[i]...)
			s.pathOff = append(s.pathOff, len(s.pathArena))
			s.active[i] = active[i]
		}
		s.maxMinRates()
		rates := s.rates

		// No link oversubscribed.
		load := make([]float64, len(nw.capBps))
		for i, p := range paths {
			for _, l := range p {
				load[l] += rates[i]
			}
		}
		for l, v := range load {
			if v > nw.capBps[l]*(1+1e-9) {
				t.Fatalf("link %d oversubscribed: %v > %v", l, v, nw.capBps[l])
			}
		}
		// Every flow has at least one saturated link (bottleneck property).
		for i, p := range paths {
			if rates[i] <= 0 {
				t.Fatalf("flow %d starved", i)
			}
			saturated := false
			for _, l := range p {
				if load[l] >= nw.capBps[l]*(1-1e-6) {
					saturated = true
					break
				}
			}
			if !saturated {
				t.Fatalf("flow %d (rate %v) has no bottleneck", i, rates[i])
			}
		}
	}
}

func TestStepCost(t *testing.T) {
	nw, _ := NewSwitchedCluster(4, 100)
	p := DefaultParams()
	// Empty step: latency only.
	c, err := nw.StepCost(p, nil)
	if err != nil || !almost(c, p.PerStepLatencySec, 1e-12) {
		t.Fatalf("empty StepCost = %v, %v", c, err)
	}
	c, err = nw.StepCost(p, []Flow{{Src: 0, Dst: 1, Bits: 100e9}})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(c, 1.0+p.PerStepLatencySec, 1e-9) {
		t.Fatalf("StepCost = %v", c)
	}
}

func TestFlowValidation(t *testing.T) {
	nw, _ := NewSwitchedCluster(4, 100)
	if _, _, err := flowTimes(nw, []Flow{{Src: 0, Dst: 0, Bits: 1}}); err == nil {
		t.Fatal("self-flow accepted")
	}
	if _, _, err := flowTimes(nw, []Flow{{Src: 0, Dst: 9, Bits: 1}}); err == nil {
		t.Fatal("out-of-range accepted")
	}
	if _, _, err := flowTimes(nw, []Flow{{Src: 0, Dst: 1, Bits: -5}}); err == nil {
		t.Fatal("negative bits accepted")
	}
}

func TestTopologyValidation(t *testing.T) {
	if _, err := NewSwitchedCluster(1, 100); err == nil {
		t.Fatal("1-host cluster accepted")
	}
	if _, err := NewSwitchedCluster(4, 0); err == nil {
		t.Fatal("0-rate cluster accepted")
	}
}

func TestZeroBitFlowsCompleteInstantly(t *testing.T) {
	nw, _ := NewSwitchedCluster(4, 100)
	mk, done, err := flowTimes(nw, []Flow{
		{Src: 0, Dst: 1, Bits: 0},
		{Src: 1, Dst: 2, Bits: 1e9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if done[0] != 0 {
		t.Fatalf("zero-bit flow done at %v", done[0])
	}
	if !almost(mk, 0.01, 1e-6) {
		t.Fatalf("makespan %v", mk)
	}
}

func TestERingStepAtScaleIsLineRate(t *testing.T) {
	// 1024 neighbor flows on the switched cluster: all at line rate.
	const n = 1024
	nw, _ := NewSwitchedCluster(n, 100)
	flows := make([]Flow, n)
	for i := range flows {
		flows[i] = Flow{Src: i, Dst: (i + 1) % n, Bits: 4.3e6}
	}
	mk, _, err := flowTimes(nw, flows)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(mk, 4.3e6/100e9, 1e-6) {
		t.Fatalf("E-Ring step makespan %v", mk)
	}
}
