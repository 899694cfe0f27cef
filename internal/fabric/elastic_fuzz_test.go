package fabric

import (
	"bytes"
	"fmt"
	"testing"

	"wrht/internal/faults"
	"wrht/internal/obs"
)

// fuzzInput reads an elastic scenario out of fuzz bytes, one byte per
// field; an exhausted input reads as zeros.
type fuzzInput []byte

func (in *fuzzInput) next() int {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return int(b)
}

// decodeElastic turns fuzz bytes into a budget, a reconfiguration delay,
// a job mix and a fault plan, every value folded into a range Simulate
// accepts. Arrivals, delays and works sit on binary-exact grids, so many
// events collide on one instant; arrivals stop at 8 s and generated faults
// at 16 s, which bounds every run.
//
// Layout: budget, delay, fault flags and seed, wavelength MTBF, wavelength
// MTTR, job-fault MTBF and wavelengths per fault, job count, then five
// bytes per job: priority, arrival, min/max, iterations and checkpoint
// interval, runtime shape.
func decodeElastic(data []byte) (budget int, delay float64, jobs []Job, plan faults.Plan) {
	in := fuzzInput(data)
	budget = 1 + in.next()%64
	delay = float64(in.next()%32) / 64
	flags, wlMTBF, wlMTTR, jobMTBF := in.next(), in.next(), in.next(), in.next()
	if flags&3 != 0 {
		plan = faults.Plan{Seed: int64(flags >> 2), HorizonSec: 16}
		if flags&1 != 0 {
			plan.WavelengthMTBFSec = 0.25 + float64(wlMTBF%32)*0.25
			plan.WavelengthMTTRSec = 0.125 + float64(wlMTTR%16)*0.125
			plan.WavelengthsPerFault = 1 + jobMTBF%4
		}
		if flags&2 != 0 {
			plan.JobFaultMTBFSec = 0.25 + float64(jobMTBF>>2%32)*0.25
		}
	}
	shapeWork := []float64{0, 0.5, 1, 2}
	n := 1 + in.next()%64
	jobs = make([]Job, n)
	for i := range jobs {
		prio, arrival, width, iters, shape := in.next(), in.next(), in.next(), in.next(), in.next()
		minW := 1 + width&3
		maxW := 0 // the whole budget
		if span := width >> 2; span < 48 {
			maxW = minW + span%16
		}
		work := shapeWork[shape%4]
		if shape%4 == 0 {
			work = 0.125 * float64(1+shape>>2%16)
		}
		jobs[i] = Job{
			Name:               fmt.Sprintf("f%02d", i),
			ArrivalSec:         float64(arrival) / 32,
			Priority:           prio % 5,
			MinWavelengths:     minW,
			MaxWavelengths:     maxW,
			Iterations:         1 + iters%3,
			CheckpointEverySec: float64(iters>>2%4) * 0.125,
			Shape:              shape % 4,
			Runtime:            perfectScaling(work),
		}
	}
	return budget, delay, jobs, plan
}

// FuzzElasticMatchesReference holds the incremental elastic solver to the
// reference solver on arbitrary job mixes and fault plans: both must
// reject an input with the same error, or agree event for event, job for
// job, in every aggregate but the solver-work counters, and in the
// Perfetto bytes. Completed jobs must also keep the accounting invariants
// slowdown >= 1 and queue time >= 0. The seed corpus in testdata holds
// mixes with up to five priority tiers, with and without faults, a deep
// queue, two inputs the fuzzer found (queued jobs parking under a
// dark-shrunk budget, and a job crash inside a reconfiguration stall), and
// retried jobs whose earlier arrival puts them mid-tier in their tier's
// wait queue rather than at its tail.
func FuzzElasticMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		budget, delay, jobs, plan := decodeElastic(data)
		pol := Policy{Kind: ElasticReallocate, ReconfigDelaySec: delay}
		run := func(ref bool) (Result, []byte, error) {
			rec := obs.New()
			res, err := simulateSolver(ref, budget, jobs, pol, plan, SchedOpts{Rec: rec, Proc: "fuzz"})
			if err != nil {
				return res, nil, err
			}
			var buf bytes.Buffer
			if err := rec.WriteTrace(&buf); err != nil {
				t.Fatal(err)
			}
			return res, buf.Bytes(), nil
		}
		inc, incTrace, incErr := run(false)
		ref, refTrace, refErr := run(true)
		if fmt.Sprint(incErr) != fmt.Sprint(refErr) {
			t.Fatalf("errors diverge: incremental %v, reference %v", incErr, refErr)
		}
		if incErr != nil {
			return
		}
		if ref.Solver.TiersTouched != 0 || ref.Solver.TiersSkipped != 0 {
			t.Fatalf("reference run used the tier index: %+v", ref.Solver)
		}
		assertSameResult(t, "fuzz", inc, ref)
		if !bytes.Equal(incTrace, refTrace) {
			t.Fatalf("perfetto traces diverge: incremental %d bytes, reference %d bytes",
				len(incTrace), len(refTrace))
		}
		for _, j := range inc.Jobs {
			if j.Rejected || j.Failed {
				continue
			}
			if j.Slowdown < 1-1e-9 || j.QueueSec < -1e-9 {
				t.Fatalf("job %s: slowdown %v, queue %v s (want >= 1 and >= 0)", j.Name, j.Slowdown, j.QueueSec)
			}
		}
	})
}
