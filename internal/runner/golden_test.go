package runner

import (
	"reflect"
	"testing"

	"wrht/internal/collective"
	"wrht/internal/core"
	"wrht/internal/electrical"
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

// TestRunOpticalCompactGoldenEquality: pricing the compact form's class
// fingerprint (Schedule.Compact().Classes(), the lowering RD, HD, binomial,
// and pipelined schedules take) through the classed runner is bit-identical
// to the boxed oracle — total, per-step durations, wavelength metrics —
// including with fabric replay validation on.
func TestRunOpticalCompactGoldenEquality(t *testing.T) {
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

// TestRunElectricalCompactGoldenEquality mirrors the optical golden test on
// the electrical substrate.
func TestRunElectricalCompactGoldenEquality(t *testing.T) {
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
