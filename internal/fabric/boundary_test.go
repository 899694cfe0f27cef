package fabric

import "testing"

// The elastic widen decision (widenPays) is a strict inequality: widening
// pays only when reconfig stall + re-priced tail finishes strictly earlier
// than the current segment. A gain of exactly ReconfigDelaySec — i.e. the
// widened finish landing exactly on the unwidened one — must be vetoed, and
// identically so in the incremental and reference solvers.
//
// Construction: budget 2, ReconfigDelaySec 3. Job A (min 1, max 2) with
// R(w) = 8/w shares the fabric with single-wavelength job B (R = 2). Both
// arrive at t=0, so A starts at width 1 with segment [0, 8]. B departs at
// t=2 freeing a wavelength; A's remaining fraction is 0.75, so widening to
// 2 prices a 3-second tail: 2 + 3 + 3 = 8 — exactly A's current segment
// end. All quantities are exact binary floats, so the comparison is a true
// equality, not a near-miss.
func TestWidenVetoExactGainBoundary(t *testing.T) {
	jobs := []Job{
		{Name: "a", MinWavelengths: 1, MaxWavelengths: 2, Runtime: perfectScaling(8)},
		{Name: "b", MaxWavelengths: 1, Runtime: perfectScaling(2)},
	}
	for _, ref := range []bool{false, true} {
		withSolver(ref, func() {
			pol := Policy{Kind: ElasticReallocate, ReconfigDelaySec: 3}
			res := mustSimulate(t, 2, jobs, pol)
			a := res.Jobs[0]
			if a.Reconfigs != 0 {
				t.Fatalf("reference=%v: exact-gain widen not vetoed: %d reconfigs", ref, a.Reconfigs)
			}
			if a.DoneSec != 8 {
				t.Fatalf("reference=%v: a done %v, want exactly 8 (no widen)", ref, a.DoneSec)
			}

			// Any strictly positive gain flips the decision: with delay 2.999 the
			// widened finish is 7.999 < 8, so the widen goes through.
			pol.ReconfigDelaySec = 2.999
			res = mustSimulate(t, 2, jobs, pol)
			a = res.Jobs[0]
			if a.Reconfigs != 1 || a.DoneSec >= 8 {
				t.Fatalf("reference=%v: sub-boundary widen skipped: %d reconfigs, done %v",
					ref, a.Reconfigs, a.DoneSec)
			}
		})
	}
}

// The elastic pin decision is the complementary non-strict inequality: a
// running job whose segment ends within ReconfigDelaySec of now —
// boundary included — is pinned at its current width, because shrinking it
// cannot free capacity before it finishes on its own. A remaining segment
// of exactly ReconfigDelaySec must be pinned in both solvers.
//
// Construction: budget 2, ReconfigDelaySec 1. Job A (min 1, max 2,
// R(w) = 8/w) runs alone at width 2 with segment [0, 4]. Job B (1
// wavelength, R = 2) arrives at t=3: A's remaining segment is exactly 1 =
// ReconfigDelaySec, so A is pinned, B waits, and starts at A's natural
// finish t=4.
func TestElasticPinExactBoundary(t *testing.T) {
	for _, ref := range []bool{false, true} {
		withSolver(ref, func() {
			pol := Policy{Kind: ElasticReallocate, ReconfigDelaySec: 1}
			jobs := []Job{
				{Name: "a", MinWavelengths: 1, MaxWavelengths: 2, Runtime: perfectScaling(8)},
				{Name: "b", ArrivalSec: 3, MaxWavelengths: 1, Runtime: perfectScaling(2)},
			}
			res := mustSimulate(t, 2, jobs, pol)
			a, b := res.Jobs[0], res.Jobs[1]
			if a.Reconfigs != 0 || a.DoneSec != 4 {
				t.Fatalf("reference=%v: boundary pin violated: a reconfigs %d done %v, want 0 / 4",
					ref, a.Reconfigs, a.DoneSec)
			}
			if b.StartSec != 4 || b.DoneSec != 6 {
				t.Fatalf("reference=%v: b start %v done %v, want 4 / 6", ref, b.StartSec, b.DoneSec)
			}

			// One tick earlier and A is no longer protected: its remaining
			// segment (1.25) exceeds the delay, so the solver shrinks it and B
			// starts immediately after the reconfig stall.
			jobs[1].ArrivalSec = 2.75
			res = mustSimulate(t, 2, jobs, pol)
			a, b = res.Jobs[0], res.Jobs[1]
			if a.Reconfigs != 1 {
				t.Fatalf("reference=%v: sub-boundary arrival did not shrink a: %d reconfigs",
					ref, a.Reconfigs)
			}
			if b.StartSec >= 4 {
				t.Fatalf("reference=%v: b start %v, want < 4 (a shrunk on arrival)", ref, b.StartSec)
			}
		})
	}
}
