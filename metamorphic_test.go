package wrht

import (
	"math/rand"
	"testing"

	"wrht/internal/collective"
	"wrht/internal/opticalsim"
	"wrht/internal/runner"
)

// rotated relabels every node i of s as (i+k) mod N. Regions, ops, pinned
// directions and width hints are unchanged, so on a ring the relabeled
// schedule is the same collective seen from another starting node.
func rotated(s *collective.Schedule, k int) *collective.Schedule {
	out := &collective.Schedule{Algorithm: s.Algorithm, N: s.N, Elems: s.Elems,
		Steps: make([]collective.Step, len(s.Steps))}
	for si, st := range s.Steps {
		trs := make([]collective.Transfer, len(st.Transfers))
		for i, tr := range st.Transfers {
			tr.Src, tr.Dst = (tr.Src+k)%s.N, (tr.Dst+k)%s.N
			trs[i] = tr
		}
		out.Steps[si] = collective.Step{Label: st.Label, Transfers: trs}
	}
	return out
}

// TestPricingRotationInvariant: relabeling every node i → (i+k) mod N leaves
// the optical and electrical prices of every boxed builder bit-identical —
// total seconds, peak wavelengths and extra rounds — at seeded ring sizes,
// wavelength budgets and default widths. It pins the transfer→arc rule
// (collective.Transfer.Arc) and the symmetry certificate against any
// dependence on absolute node labels.
func TestPricingRotationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	algs := []Algorithm{AlgORing, AlgRD, AlgHD, AlgBinomial, AlgWrht, AlgWrhtPipelined}
	const trials = 300
	for trial := 0; trial < trials; trial++ {
		cfg := DefaultConfig(2 + rng.Intn(199))
		cfg.Optical.Wavelengths = 1 + rng.Intn(64)
		alg := algs[trial%len(algs)]
		elems := 1 + rng.Intn(1<<18)
		k := 1 + rng.Intn(cfg.Nodes-1)
		defaultWidth := rng.Intn(cfg.Optical.Wavelengths + 1)
		s, err := buildSchedule(cfg, alg, elems)
		if err != nil {
			t.Fatalf("trial %d n=%d w=%d %s: %v", trial, cfg.Nodes, cfg.Optical.Wavelengths, alg, err)
		}
		opts := runner.DefaultOpticalOptions()
		opts.Params = cfg.Optical
		opts.DefaultWidth = defaultWidth
		eopts := runner.ElectricalOptions{Params: cfg.Electrical}
		var res [2][2]runner.Result
		for i, sched := range []*collective.Schedule{s, rotated(s, k)} {
			cls := sched.Classes()
			if res[i][0], err = runner.RunOpticalClassedObserved(cls, opts, nil, ""); err != nil {
				t.Fatal(err)
			}
			if res[i][1], err = runner.RunElectricalClassedObserved(cls, eopts, nil, ""); err != nil {
				t.Fatal(err)
			}
		}
		for sub, name := range []string{"optical", "electrical"} {
			a, b := res[0][sub], res[1][sub]
			if a.TotalSec != b.TotalSec || a.MaxWavelengths != b.MaxWavelengths || a.ExtraRounds != b.ExtraRounds {
				t.Fatalf("trial %d n=%d w=%d width=%d %s rotated by %d: %s price moved: %v/%d/%d → %v/%d/%d",
					trial, cfg.Nodes, cfg.Optical.Wavelengths, defaultWidth, alg, k, name,
					a.TotalSec, a.MaxWavelengths, a.ExtraRounds, b.TotalSec, b.MaxWavelengths, b.ExtraRounds)
			}
		}
	}
}

// TestCommunicationTimeMonotoneInBytes: for seeded configurations and every
// algorithm, a larger buffer never prices faster.
func TestCommunicationTimeMonotoneInBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	algs := Algorithms()
	const trials = 150
	for trial := 0; trial < trials; trial++ {
		cfg := DefaultConfig(2 + rng.Intn(255))
		cfg.Optical.Wavelengths = 1 + rng.Intn(64)
		alg := algs[trial%len(algs)]
		small := 1 + rng.Int63n(1<<24)
		large := small + 1 + rng.Int63n(1<<24)
		a, err := CommunicationTime(cfg, alg, small)
		if err != nil {
			t.Fatal(err)
		}
		b, err := CommunicationTime(cfg, alg, large)
		if err != nil {
			t.Fatal(err)
		}
		if b.Seconds < a.Seconds {
			t.Fatalf("trial %d n=%d w=%d %s: %d B prices %v s but %d B prices %v s",
				trial, cfg.Nodes, cfg.Optical.Wavelengths, alg, small, a.Seconds, large, b.Seconds)
		}
	}
}

// TestNegativeDefaultWidthRejected: a negative default stripe width is
// rejected with one error, raised where the width rule lives
// (optical.NewStepPricer), by both consumers that take a default width.
func TestNegativeDefaultWidthRejected(t *testing.T) {
	s, err := collective.RingAllReduce(8, 64)
	if err != nil {
		t.Fatal(err)
	}
	cls := s.Classes()
	const want = "optical: default width -1"
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"RunOpticalClassedObserved", func() error {
			opts := runner.DefaultOpticalOptions()
			opts.DefaultWidth = -1
			_, err := runner.RunOpticalClassedObserved(cls, opts, nil, "")
			return err
		}},
		{"opticalsim.Run", func() error {
			opts := opticalsim.DefaultOptions()
			opts.DefaultWidth = -1
			_, err := opticalsim.Run(cls, opts)
			return err
		}},
	} {
		err := c.run()
		if err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", c.name, err, want)
		}
	}
}
