package runner

import (
	"math/rand"
	"reflect"
	"testing"

	"wrht/internal/collective"
	"wrht/internal/core"
	"wrht/internal/electrical"
	"wrht/internal/ring"
	"wrht/internal/tensor"
)

// goldenSchedules builds a representative spread of schedules: ring, RD, HD,
// binomial, and Wrht plans (striped and not) over mixed node counts.
func goldenSchedules(t *testing.T) []*collective.Schedule {
	t.Helper()
	var out []*collective.Schedule
	add := func(s *collective.Schedule, err error) {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	for _, n := range []int{4, 9, 16, 30} {
		add(collective.RingAllReduce(n, 4*n))
		add(collective.RecursiveDoubling(n, 128))
		add(collective.HalvingDoubling(n, 128))
		add(collective.BinomialTree(n, 64))
	}
	for _, c := range []struct{ n, w, m int }{{16, 8, 3}, {30, 16, 5}, {64, 8, 9}} {
		p, err := core.BuildPlan(c.n, c.w, core.Options{M: c.m, Striping: true})
		if err != nil {
			t.Fatal(err)
		}
		s, err := p.Schedule(200)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

// TestRunOpticalFingerprintGoldenEquality: pricing the boxed schedule's
// class fingerprint (Schedule.Classes, the lowering RD, HD, binomial, and
// pipelined schedules take) through the classed runner is bit-identical to
// the boxed oracle — total, per-step durations, wavelength metrics —
// including with fabric replay validation on.
func TestRunOpticalFingerprintGoldenEquality(t *testing.T) {
	for _, s := range goldenSchedules(t) {
		for _, validate := range []bool{false, true} {
			opts := DefaultOpticalOptions()
			opts.ValidateFabric = validate
			want, err := RunOptical(s, opts)
			if err != nil {
				t.Fatalf("%s: boxed: %v", s.Algorithm, err)
			}
			cls := s.Classes()
			got, err := RunOpticalClassedObserved(cls, opts, nil, "")
			if err != nil {
				t.Fatalf("%s: classed: %v", s.Algorithm, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s (validate=%v): classed optical result diverges\n got %+v\nwant %+v",
					s.Algorithm, validate, got, want)
			}
			cls.Release()
		}
	}
}

// TestRunElectricalFingerprintGoldenEquality mirrors the optical golden test
// on the electrical substrate.
func TestRunElectricalFingerprintGoldenEquality(t *testing.T) {
	opts := ElectricalOptions{Params: electrical.DefaultParams()}
	for _, s := range goldenSchedules(t) {
		want, err := RunElectrical(s, opts)
		if err != nil {
			t.Fatalf("%s: boxed: %v", s.Algorithm, err)
		}
		cls := s.Classes()
		got, err := RunElectricalClassedObserved(cls, opts, nil, "")
		if err != nil {
			t.Fatalf("%s: classed: %v", s.Algorithm, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: classed electrical result diverges\n got %+v\nwant %+v",
				s.Algorithm, got, want)
		}
		cls.Release()
	}
}

// TestFingerprintPerturbedStepMaterialized (property): take a certified
// block-major orbit step and perturb exactly one transfer's width,
// direction, routed flag or destination. The perturbed step is not
// certified, the fingerprint expands back to the boxed schedule, and both
// substrates price it bit-identically to the boxed oracle.
func TestFingerprintPerturbedStepMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	eopts := ElectricalOptions{Params: electrical.DefaultParams()}
	for trial := 0; trial < 80; trial++ {
		// Blocks of p nodes; inside each, a CW chain i -> i+1 (or the
		// one-hop ring shift when p = 1), so every arc fits one period.
		p := 1 + rng.Intn(4)
		n := p * (2 + rng.Intn(6))
		if n < 3 {
			n = 3
		}
		chunks := tensor.Chunks(rng.Intn(3000), n)
		s := &collective.Schedule{Algorithm: "perturbed", N: n, Elems: chunks[n-1].End()}
		width, routed := rng.Intn(3), rng.Intn(2) == 0
		var sym collective.Step
		for blk := 0; blk < n/p; blk++ {
			for i := 0; i < max(p-1, 1); i++ {
				src := blk*p + i
				sym.Transfers = append(sym.Transfers, collective.Transfer{
					Src: src, Dst: (src + 1) % n, Region: chunks[src], Op: collective.OpReduce,
					Routed: routed, Dir: ring.CW, Width: width,
				})
			}
		}
		bad := collective.Step{Transfers: append([]collective.Transfer(nil), sym.Transfers...)}
		tr := &bad.Transfers[rng.Intn(len(bad.Transfers))]
		field := []string{"width", "direction", "routed", "destination"}[trial%4]
		switch field {
		case "width":
			tr.Width += 1 + rng.Intn(2)
		case "direction":
			tr.Dir = ring.CCW
		case "routed":
			tr.Routed = !tr.Routed
		case "destination":
			d := rng.Intn(n - 2) // a node other than the source and the old destination
			for d == tr.Src || d == tr.Dst {
				d++
			}
			tr.Dst = d
		}
		sym.Label, bad.Label = "symmetric", "perturbed "+field
		s.Steps = []collective.Step{sym, bad}
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d: invalid schedule: %v", trial, err)
		}

		cls := s.Classes()
		if _, _, _, _, ok := cls.Sym(0); !ok {
			t.Fatalf("trial %d (n=%d p=%d): the unperturbed orbit step lost its certificate", trial, n, p)
		}
		if _, _, _, _, ok := cls.Sym(1); ok {
			t.Fatalf("trial %d (n=%d p=%d): step with a perturbed %s was certified", trial, n, p, field)
		}
		if !reflect.DeepEqual(cls.Expand(), s) {
			t.Fatalf("trial %d: perturbed %s: fingerprint does not expand to the boxed schedule", trial, field)
		}
		wantO, err := RunOptical(s, DefaultOpticalOptions())
		if err != nil {
			t.Fatal(err)
		}
		gotO, err := RunOpticalClassedObserved(cls, DefaultOpticalOptions(), nil, "")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotO, wantO) {
			t.Fatalf("trial %d: perturbed %s: optical price diverges\n got %+v\nwant %+v", trial, field, gotO, wantO)
		}
		wantE, err := RunElectrical(s, eopts)
		if err != nil {
			t.Fatal(err)
		}
		gotE, err := RunElectricalClassedObserved(cls, eopts, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotE, wantE) {
			t.Fatalf("trial %d: perturbed %s: electrical price diverges\n got %+v\nwant %+v", trial, field, gotE, wantE)
		}
		cls.Release()
	}
}
