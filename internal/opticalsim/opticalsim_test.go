package opticalsim

import (
	"math"
	"testing"

	"wrht/internal/collective"
	"wrht/internal/core"
	"wrht/internal/ring"
	"wrht/internal/runner"
)

func almost(a, b, rel float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))
}

// runBoxed simulates a boxed schedule through its classed fingerprint.
func runBoxed(s *collective.Schedule, opts Options) (Result, error) {
	cls := s.Classes()
	defer cls.Release()
	return Run(cls, opts)
}

func wrhtSchedule(t *testing.T, n, w, m int, elems int) *collective.Schedule {
	t.Helper()
	plan, err := core.BuildPlan(n, w, core.Options{M: m, Policy: core.A2AFormula, Striping: true})
	if err != nil {
		t.Fatal(err)
	}
	s, err := plan.Schedule(elems)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBarrierMatchesStepModel(t *testing.T) {
	// For schedules whose steps fit the wavelength budget in one round, the
	// event-level barrier simulation must equal the closed-form step model
	// to float precision.
	schedules := []*collective.Schedule{}
	ringS, err := collective.RingAllReduce(32, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	schedules = append(schedules, ringS, wrhtSchedule(t, 64, 64, 3, 64<<10))
	for _, s := range schedules {
		simRes, err := runBoxed(s, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		stepRes, err := runner.RunOptical(s, runner.DefaultOpticalOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !almost(simRes.TotalSec, stepRes.TotalSec, 1e-9) {
			t.Errorf("%s: event sim %.9g vs step model %.9g",
				s.Algorithm, simRes.TotalSec, stepRes.TotalSec)
		}
		topo := ring.MustNew(s.N)
		if err := ValidateTimeline(topo, simRes.Events); err != nil {
			t.Errorf("%s: %v", s.Algorithm, err)
		}
	}
}

func TestAsyncNeverSlowerThanBarrier(t *testing.T) {
	// With zero fixed overheads, removing barriers can only help.
	opts := DefaultOptions()
	opts.Params.TuningNs = 0
	opts.Params.StepControlNs = 0
	schedules := []*collective.Schedule{
		wrhtSchedule(t, 64, 64, 3, 32<<10),
		wrhtSchedule(t, 100, 16, 7, 32<<10),
	}
	ringS, err := collective.RingAllReduce(16, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	hd, err := collective.HalvingDoubling(16, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	schedules = append(schedules, ringS, hd)
	for _, s := range schedules {
		b := opts
		b.Mode = Barrier
		a := opts
		a.Mode = Async
		rb, err := runBoxed(s, b)
		if err != nil {
			t.Fatal(err)
		}
		ra, err := runBoxed(s, a)
		if err != nil {
			t.Fatal(err)
		}
		if ra.TotalSec > rb.TotalSec*(1+1e-9) {
			t.Errorf("%s: async %.9g slower than barrier %.9g",
				s.Algorithm, ra.TotalSec, rb.TotalSec)
		}
		topo := ring.MustNew(s.N)
		if err := ValidateTimeline(topo, ra.Events); err != nil {
			t.Errorf("%s async: %v", s.Algorithm, err)
		}
	}
}

func TestAsyncCompletesAllTransfers(t *testing.T) {
	s := wrhtSchedule(t, 128, 64, 5, 16<<10)
	opts := DefaultOptions()
	opts.Mode = Async
	res, err := runBoxed(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, st := range s.Steps {
		want += len(st.Transfers)
	}
	if len(res.Events) != want {
		t.Fatalf("events %d, transfers %d", len(res.Events), want)
	}
	if res.EventCount <= 0 {
		t.Fatal("no engine events recorded")
	}
}

func TestAsyncExploitsImbalance(t *testing.T) {
	// Two independent pipelines of unequal depth: node 0→1→2 (two hops of
	// data dependency) and node 4→5. Under barriers the second step waits
	// for the slow first step; async lets 4→5... both are step-0 here, so
	// craft imbalance across steps: step 0 = {0→1 big, 4→5 small},
	// step 1 = {5→6 small}. Async starts 5→6 as soon as 4→5 lands.
	s := &collective.Schedule{Algorithm: "imbalanced", N: 8, Elems: 1 << 20}
	big := collectiveTransfer(0, 1, 1<<20)
	small := collectiveTransfer(4, 5, 1<<10)
	next := collectiveTransfer(5, 6, 1<<10)
	s.Steps = []collective.Step{
		{Label: "s0", Transfers: []collective.Transfer{big, small}},
		{Label: "s1", Transfers: []collective.Transfer{next}},
	}
	opts := DefaultOptions()
	opts.Params.TuningNs = 0
	opts.Params.StepControlNs = 0

	b := opts
	b.Mode = Barrier
	rb, err := runBoxed(s, b)
	if err != nil {
		t.Fatal(err)
	}
	a := opts
	a.Mode = Async
	ra, err := runBoxed(s, a)
	if err != nil {
		t.Fatal(err)
	}
	// The makespan is dominated by the big transfer either way, but async
	// must still be (slightly) faster, and — the real pipelining evidence —
	// the dependent 5→6 transfer must start long before the big transfer
	// ends, which the barrier forbids.
	if ra.TotalSec >= rb.TotalSec {
		t.Fatalf("async %.9g not faster than barrier %.9g", ra.TotalSec, rb.TotalSec)
	}
	var bigEnd, nextStartAsync, nextStartBarrier float64
	for _, ev := range ra.Events {
		if ev.Src == 0 && ev.Dst == 1 {
			bigEnd = ev.End
		}
		if ev.Src == 5 && ev.Dst == 6 {
			nextStartAsync = ev.Start
		}
	}
	for _, ev := range rb.Events {
		if ev.Src == 5 && ev.Dst == 6 {
			nextStartBarrier = ev.Start
		}
	}
	if !(nextStartAsync < bigEnd*0.1) {
		t.Fatalf("async 5→6 started at %.9g, not pipelined ahead of big end %.9g",
			nextStartAsync, bigEnd)
	}
	if !(nextStartBarrier >= bigEnd) {
		t.Fatalf("barrier 5→6 started at %.9g, before the step barrier at %.9g",
			nextStartBarrier, bigEnd)
	}
}

func collectiveTransfer(src, dst, elems int) collective.Transfer {
	return collective.Transfer{
		Src: src, Dst: dst,
		Region: regionOf(elems),
		Op:     collective.OpReduce,
	}
}

func regionOf(elems int) (r struct{ Offset, Len int }) {
	r.Len = elems
	return
}

func TestReduceComputeExtendsCriticalPath(t *testing.T) {
	s := wrhtSchedule(t, 16, 8, 3, 1<<18)
	fast := DefaultOptions()
	fast.Mode = Async
	slow := fast
	slow.ReduceGBps = 1 // 1 GB/s reduction: very slow
	rf, err := runBoxed(s, fast)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := runBoxed(s, slow)
	if err != nil {
		t.Fatal(err)
	}
	if rs.TotalSec <= rf.TotalSec {
		t.Fatalf("reduce compute had no effect: %v vs %v", rs.TotalSec, rf.TotalSec)
	}
}

func TestRunValidation(t *testing.T) {
	s, err := collective.RingAllReduce(8, 64)
	if err != nil {
		t.Fatal(err)
	}
	bad := DefaultOptions()
	bad.BytesPerElem = -1
	if _, err := runBoxed(s, bad); err == nil {
		t.Fatal("negative BytesPerElem accepted")
	}
	bad = DefaultOptions()
	bad.ReduceGBps = -1
	if _, err := runBoxed(s, bad); err == nil {
		t.Fatal("negative ReduceGBps accepted")
	}
	bad = DefaultOptions()
	bad.Mode = Mode(42)
	if _, err := runBoxed(s, bad); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestValidateTimelineCatchesOverlap(t *testing.T) {
	topo := ring.MustNew(8)
	events := []TransferEvent{
		{Arc: ring.Arc{Src: 0, Dst: 2, Dir: ring.CW}, Wavelengths: []int{0}, Start: 0, End: 10},
		{Arc: ring.Arc{Src: 1, Dst: 3, Dir: ring.CW}, Wavelengths: []int{0}, Start: 5, End: 15},
	}
	if err := ValidateTimeline(topo, events); err == nil {
		t.Fatal("overlapping timeline accepted")
	}
	// Disjoint in time: fine.
	events[1].Start, events[1].End = 10, 15
	if err := ValidateTimeline(topo, events); err != nil {
		t.Fatal(err)
	}
}

func TestModeString(t *testing.T) {
	if Barrier.String() != "barrier" || Async.String() != "async" {
		t.Fatal("Mode.String broken")
	}
}

func TestAsyncWrhtBeatsBarrierAtUnevenShapes(t *testing.T) {
	// A non-power grouping leaves a small trailing group per level whose
	// transfers finish early; async lets its representative proceed.
	s := wrhtSchedule(t, 100, 16, 7, 1<<16)
	optsB := DefaultOptions()
	optsB.Params.TuningNs = 0
	optsB.Params.StepControlNs = 0
	optsA := optsB
	optsA.Mode = Async
	rb, err := runBoxed(s, optsB)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := runBoxed(s, optsA)
	if err != nil {
		t.Fatal(err)
	}
	if ra.TotalSec > rb.TotalSec {
		t.Fatalf("async %v > barrier %v", ra.TotalSec, rb.TotalSec)
	}
}
