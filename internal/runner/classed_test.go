package runner

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"wrht/internal/collective"
	"wrht/internal/electrical"
	"wrht/internal/ring"
	"wrht/internal/tensor"
	"wrht/internal/wdm"
)

// classedGoldenCases extends the golden schedule spread with randomized
// schedules: symmetric uniform-shift patterns (certificate path), arbitrary
// asymmetric patterns (per-step fallback path), and mixes with zero-length
// regions, so classed pricing is exercised on every branch.
func classedGoldenCases(t *testing.T) []*collective.Schedule {
	out := goldenSchedules(t)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(24)
		elems := rng.Intn(3000)
		chunks := tensor.Chunks(elems, n)
		s := &collective.Schedule{Algorithm: "random", N: n, Elems: elems}
		for st, steps := 0, 1+rng.Intn(4); st < steps; st++ {
			step := collective.Step{Label: fmt.Sprintf("s%d", st)}
			if trial%2 == 0 {
				// Uniform shift: rotationally symmetric, sometimes disjoint.
				shift := 1 + rng.Intn(n-1)
				width := rng.Intn(3)
				rot := rng.Intn(n)
				for i := 0; i < n; i++ {
					step.Transfers = append(step.Transfers, collective.Transfer{
						Src: i, Dst: (i + shift) % n,
						Region: chunks[(i+rot)%n],
						Op:     collective.OpReduce,
						Width:  width,
					})
				}
			} else {
				used := map[int]bool{}
				for k, lim := 0, rng.Intn(2*n); k < lim; k++ {
					src, dst := rng.Intn(n), rng.Intn(n)
					if src == dst || used[dst] {
						continue
					}
					used[dst] = true
					tr := collective.Transfer{
						Src: src, Dst: dst,
						Region: chunks[rng.Intn(n)],
						Op:     collective.Op(rng.Intn(2)),
						Width:  rng.Intn(4),
					}
					if rng.Intn(2) == 0 {
						tr.Routed = true
						tr.Dir = ring.Direction(rng.Intn(2))
					}
					step.Transfers = append(step.Transfers, tr)
				}
			}
			s.Steps = append(s.Steps, step)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d: invalid random schedule: %v", trial, err)
		}
		out = append(out, s)
	}
	return out
}

// TestRunOpticalClassedGoldenEquality: classed optical pricing — certificate
// fast path and verified fallback alike — is bit-identical to the boxed
// oracle, across assignment policies and stripe-width defaults.
func TestRunOpticalClassedGoldenEquality(t *testing.T) {
	for _, s := range classedGoldenCases(t) {
		cls := s.Classes()
		for _, policy := range []wdm.Policy{wdm.FirstFit, wdm.BestFit} {
			for _, dw := range []int{1, 4, 64} {
				opts := DefaultOpticalOptions()
				opts.Assigner = policy
				opts.DefaultWidth = dw
				want, errWant := RunOptical(s, opts)
				got, errGot := RunOpticalClassedObserved(cls, opts, nil, "")
				if (errWant == nil) != (errGot == nil) {
					t.Fatalf("%s (policy=%v dw=%d): error divergence: boxed=%v classed=%v",
						s.Algorithm, policy, dw, errWant, errGot)
				}
				if errWant != nil {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s (policy=%v dw=%d): classed optical result diverges\n got %+v\nwant %+v",
						s.Algorithm, policy, dw, got, want)
				}
			}
		}
		cls.Release()
	}
}

// TestRunElectricalClassedGoldenEquality: classed electrical pricing — the
// class-level fluid solve on permutation steps, the per-flow fallback
// everywhere else — is bit-identical to the boxed oracle on the default
// cluster and on a custom ring network (where the quotient never applies).
func TestRunElectricalClassedGoldenEquality(t *testing.T) {
	for _, s := range classedGoldenCases(t) {
		cls := s.Classes()
		nets := []*electrical.Network{nil}
		if ringNet, err := electrical.NewRingNetwork(s.N, 100); err == nil {
			nets = append(nets, ringNet)
		}
		for _, nw := range nets {
			opts := ElectricalOptions{Params: electrical.DefaultParams(), Network: nw}
			want, errWant := RunElectrical(s, opts)
			got, errGot := RunElectricalClassedObserved(cls, opts, nil, "")
			if (errWant == nil) != (errGot == nil) {
				t.Fatalf("%s: error divergence: boxed=%v classed=%v", s.Algorithm, errWant, errGot)
			}
			if errWant != nil {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s (net=%v): classed electrical result diverges\n got %+v\nwant %+v",
					s.Algorithm, nw != nil, got, want)
			}
		}
		cls.Release()
	}
}

// TestRunOpticalClassedFabricReplay: with fabric validation requested the
// classed runner materializes every step; results (and the reservation
// ledger's accept/reject behavior) match the boxed oracle exactly.
func TestRunOpticalClassedFabricReplay(t *testing.T) {
	for _, s := range goldenSchedules(t) {
		cls := s.Classes()
		opts := DefaultOpticalOptions()
		opts.ValidateFabric = true
		want, err := RunOptical(s, opts)
		if err != nil {
			t.Fatalf("%s: boxed: %v", s.Algorithm, err)
		}
		got, err := RunOpticalClassedObserved(cls, opts, nil, "")
		if err != nil {
			t.Fatalf("%s: classed: %v", s.Algorithm, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: classed fabric-replay result diverges\n got %+v\nwant %+v", s.Algorithm, got, want)
		}
		cls.Release()
	}
}

// TestRunClassedRingDirect: the O(N) classed ring generator prices exactly
// like the materialized ring schedule on both substrates — the headline
// complexity-class win rests on this equality.
func TestRunClassedRingDirect(t *testing.T) {
	for _, n := range []int{2, 5, 16, 61} {
		for _, elems := range []int{0, 3, n, 10 * n} {
			boxed, err := collective.RingAllReduce(n, elems)
			if err != nil {
				t.Fatal(err)
			}
			cls, err := collective.RingAllReduceClassed(n, elems)
			if err != nil {
				t.Fatal(err)
			}
			oWant, err := RunOptical(boxed, DefaultOpticalOptions())
			if err != nil {
				t.Fatal(err)
			}
			oGot, err := RunOpticalClassedObserved(cls, DefaultOpticalOptions(), nil, "")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(oGot, oWant) {
				t.Fatalf("n=%d elems=%d: classed ring optical diverges", n, elems)
			}
			eOpts := ElectricalOptions{Params: electrical.DefaultParams()}
			eWant, err := RunElectrical(boxed, eOpts)
			if err != nil {
				t.Fatal(err)
			}
			eGot, err := RunElectricalClassedObserved(cls, eOpts, nil, "")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(eGot, eWant) {
				t.Fatalf("n=%d elems=%d: classed ring electrical diverges", n, elems)
			}
			cls.Release()
		}
	}
}
