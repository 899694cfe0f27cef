package wrht

import (
	"fmt"
	"hash/fnv"
	"math"

	"wrht/internal/core"
	"wrht/internal/dnn"
	"wrht/internal/fabric"
)

// JobSpec describes one tenant of a shared optical fabric: an all-reduce
// workload (a catalog model or a raw byte count) arriving at a given time.
type JobSpec struct {
	// Name identifies the job in results; defaults to "job<i>".
	Name string
	// Model names a catalog network (see Models, MustModel); when set, its
	// gradient size overrides Bytes.
	Model string
	// Bytes is the all-reduced buffer size when Model is empty.
	Bytes int64
	// ArrivalSec is when the job reaches the fabric.
	ArrivalSec float64
	// Priority orders jobs under the priority policy (higher preempts).
	Priority int
	// Iterations is the number of back-to-back all-reduces (default 1).
	Iterations int
	// Algorithm prices the job's all-reduce (default AlgWrht). Electrical
	// algorithms are rejected — the fabric shares optical wavelengths.
	Algorithm Algorithm
	// MinWavelengths (default 1) and MaxWavelengths (default: the whole
	// budget) bound the stripe grant the job accepts.
	MinWavelengths int
	MaxWavelengths int
	// CheckpointEverySec is the job's checkpoint interval in productive
	// service seconds (0: no checkpointing). Only meaningful under fault
	// injection: a faulted job replays the work since its last checkpoint
	// instead of restarting from scratch.
	CheckpointEverySec float64
}

// Validate reports a malformed job spec with a clear error instead of
// letting a bad field be silently clamped (or panic) deeper in the
// co-simulation: negative sizes, negative or non-finite arrival times,
// negative wavelength bounds, an inverted MinWavelengths > MaxWavelengths
// range, and negative iteration counts are all rejected. SimulateFabric
// validates every spec up front, so a bad tenant fails the call before any
// simulation runs.
func (spec JobSpec) Validate() error {
	name := spec.Name
	if name == "" {
		name = "(unnamed)"
	}
	if spec.Bytes < 0 {
		return fmt.Errorf("wrht: job %q: negative Bytes %d", name, spec.Bytes)
	}
	if spec.ArrivalSec < 0 {
		return fmt.Errorf("wrht: job %q: negative ArrivalSec %v", name, spec.ArrivalSec)
	}
	if math.IsNaN(spec.ArrivalSec) || math.IsInf(spec.ArrivalSec, 0) {
		return fmt.Errorf("wrht: job %q: non-finite ArrivalSec %v", name, spec.ArrivalSec)
	}
	if spec.MinWavelengths < 0 {
		return fmt.Errorf("wrht: job %q: negative MinWavelengths %d", name, spec.MinWavelengths)
	}
	if spec.MaxWavelengths < 0 {
		return fmt.Errorf("wrht: job %q: negative MaxWavelengths %d", name, spec.MaxWavelengths)
	}
	if spec.MaxWavelengths != 0 && spec.MinWavelengths > spec.MaxWavelengths {
		return fmt.Errorf("wrht: job %q: MinWavelengths %d exceeds MaxWavelengths %d",
			name, spec.MinWavelengths, spec.MaxWavelengths)
	}
	if spec.Iterations < 0 {
		return fmt.Errorf("wrht: job %q: negative Iterations %d", name, spec.Iterations)
	}
	if spec.CheckpointEverySec < 0 || math.IsNaN(spec.CheckpointEverySec) || math.IsInf(spec.CheckpointEverySec, 0) {
		return fmt.Errorf("wrht: job %q: bad CheckpointEverySec %v", name, spec.CheckpointEverySec)
	}
	return nil
}

// FabricPolicy selects how concurrent tenants share the wavelength budget.
type FabricPolicy struct {
	// Kind is FabricStatic, FabricFirstFit, FabricPriority, or
	// FabricElastic.
	Kind string
	// Partitions is the share count for FabricStatic (default 4, clamped
	// to the budget). Each share is budget/Partitions wavelengths wide;
	// the remainder of an inexact division is spread round-robin over the
	// leading shares, so no wavelength is permanently dark.
	Partitions int
	// ReconfigDelaySec is FabricElastic's optical switch settling time:
	// every mid-flight stripe change stalls the affected job this long
	// (it holds its new wavelengths but makes no progress). 0 models an
	// idealized instantly-reconfigurable fabric. Ignored by the other
	// policies.
	ReconfigDelaySec float64
}

// Fabric policy kinds.
const (
	// FabricStatic splits the wavelength budget into fixed shares.
	FabricStatic = "static"
	// FabricFirstFit grants wavelengths first-come first-served from a
	// shared pool; small jobs may overtake a blocked wide job.
	FabricFirstFit = "first-fit"
	// FabricPriority serves jobs by priority and preempts lower-priority
	// tenants when a high-priority job cannot fit.
	FabricPriority = "priority"
	// FabricElastic re-solves the whole stripe assignment on every arrival
	// and departure: running tenants widen up to their MaxWavelengths when
	// capacity frees, shrink (never fully preempt) to admit higher-priority
	// arrivals, and pay ReconfigDelaySec per mid-flight width change.
	FabricElastic = "elastic"
)

// FabricPolicies returns the supported policies in report order.
func FabricPolicies() []FabricPolicy {
	return []FabricPolicy{
		{Kind: FabricStatic},
		{Kind: FabricFirstFit},
		{Kind: FabricPriority},
		{Kind: FabricElastic},
	}
}

func (p FabricPolicy) internal() (fabric.Policy, error) {
	switch p.Kind {
	case FabricStatic:
		return fabric.Policy{Kind: fabric.StaticPartition, Partitions: p.Partitions}, nil
	case FabricFirstFit:
		return fabric.Policy{Kind: fabric.FirstFitShare}, nil
	case FabricPriority:
		return fabric.Policy{Kind: fabric.PriorityPreempt}, nil
	case FabricElastic:
		return fabric.Policy{Kind: fabric.ElasticReallocate, ReconfigDelaySec: p.ReconfigDelaySec}, nil
	default:
		return fabric.Policy{}, fmt.Errorf("wrht: unknown fabric policy %q", p.Kind)
	}
}

// String renders the policy for table headers. An unset Partitions count is
// not shown (the effective value depends on the budget it is applied to);
// an elastic settling delay is shown in microseconds.
func (p FabricPolicy) String() string {
	if p.Kind == FabricStatic && p.Partitions != 0 {
		return fmt.Sprintf("%s/%d", p.Kind, p.Partitions)
	}
	if p.Kind == FabricElastic && p.ReconfigDelaySec != 0 {
		return fmt.Sprintf("%s/%gus", p.Kind, p.ReconfigDelaySec*1e6)
	}
	return p.Kind
}

// FabricJobResult is the per-tenant outcome of a fabric co-simulation.
type FabricJobResult struct {
	Name     string
	Rejected bool
	// ArrivalSec/StartSec/DoneSec are absolute simulation times; QueueSec
	// is the initial queueing delay and ServiceSec the time spent running.
	ArrivalSec float64
	StartSec   float64
	DoneSec    float64
	QueueSec   float64
	ServiceSec float64
	// Wavelengths is the job's final concrete wavelength set (indices into
	// the budget); Width is its size.
	Wavelengths []int
	Width       int
	Preemptions int
	// Reconfigs counts mid-flight stripe changes under FabricElastic; each
	// one stalled the job for the policy's ReconfigDelaySec.
	Reconfigs int
	// AloneSec is the job's solo runtime at its widest grant
	// (MaxWavelengths); Slowdown is (DoneSec-ArrivalSec)/AloneSec, the
	// price of sharing.
	AloneSec float64
	Slowdown float64
	// Retries counts fault-driven re-admissions, Evictions forced removals
	// from the fabric, and LostWorkSec service discarded by faults (work
	// since the last checkpoint, or everything for a checkpoint-free job).
	// Failed marks a job that exhausted its retry budget. All zero without
	// a FaultPlan.
	Retries     int
	Evictions   int
	LostWorkSec float64
	Failed      bool
}

// FabricEvent is one entry of the fabric trace.
type FabricEvent struct {
	TimeSec float64
	Job     string
	// Kind is arrive | reject | start | preempt | resume | reconfig |
	// finish, plus — under a FaultPlan — wavelength-down | wavelength-up |
	// job-fault | evict | retry. A reconfig entry records the job's new
	// stripe width after an elastic re-allocation; a wavelength-down/-up
	// entry the number of wavelengths affected.
	Kind        string
	Wavelengths int
}

// FabricResult aggregates a multi-tenant fabric co-simulation.
type FabricResult struct {
	Policy FabricPolicy
	// Budget is the fabric-wide wavelength count (cfg.Optical.Wavelengths).
	Budget int
	Jobs   []FabricJobResult
	Events []FabricEvent
	// MakespanSec is the last completion time.
	MakespanSec  float64
	MeanQueueSec float64
	MaxQueueSec  float64
	MeanSlowdown float64
	// Fairness is Jain's index over per-job slowdowns (1 = perfectly fair).
	Fairness float64
	// Utilization is lit wavelength-seconds / (budget x makespan).
	Utilization     float64
	PeakWavelengths int
	RejectedJobs    int
	// Fault aggregates (all zero without a FaultPlan): JobFaults counts
	// injected transient faults, Evictions forced removals, Retries
	// re-admissions, FailedJobs exhausted retry budgets, and LostWorkSec
	// the service discarded by faults.
	JobFaults   int
	Evictions   int
	Retries     int
	FailedJobs  int
	LostWorkSec float64
	// Availability is the fraction of wavelength-second capacity
	// (budget × makespan) not lost to dark wavelengths; 1 without faults.
	Availability float64
}

// jobBytes resolves the buffer size of a job spec.
func jobBytes(cfg Config, spec JobSpec) (int64, error) {
	if spec.Model != "" {
		m, err := dnn.Lookup(spec.Model)
		if err != nil {
			return 0, err
		}
		return m.GradientBytes(cfg.BytesPerElem), nil
	}
	if spec.Bytes <= 0 {
		return 0, fmt.Errorf("wrht: job %q has no model and non-positive bytes %d",
			spec.Name, spec.Bytes)
	}
	return spec.Bytes, nil
}

// SimulateFabric co-schedules the jobs on one shared optical ring fabric of
// cfg.Nodes workers and cfg.Optical.Wavelengths total wavelengths under the
// policy. Each tenant's all-reduce is priced by the exact single-ring
// simulation path (CommunicationTime) with the optical budget restricted to
// the tenant's granted stripe, so a lone job on the fabric reproduces the
// dedicated-ring numbers. The co-simulation is deterministic.
//
// An optional FaultPlan injects seeded wavelength and job failures on the
// same timeline (see FaultPlan); passing none, or an empty plan, leaves
// every result bit-identical to the fault-free simulation.
func SimulateFabric(cfg Config, jobs []JobSpec, policy FabricPolicy, plan ...FaultPlan) (FabricResult, error) {
	fp, err := onePlan(plan)
	if err != nil {
		return FabricResult{}, err
	}
	return simulateFabric(cfg, jobs, policy, newSession(), fp, nil)
}

// tenant is one workload of an optical fabric, resolved once whether it
// arrives as a SimulateFabric job or a SimulateFleet shape.
type tenant struct {
	alg   Algorithm
	bytes int64
	// floor is the smallest stripe grant alg can run with: a fixed Wrht
	// group size m is only feasible at wavelength budgets w with
	// core.MaxGroupSize(w) >= m; everything else runs on one wavelength.
	floor int
}

// opticalTenant resolves a tenant's algorithm (default AlgWrht) and width
// floor; the caller fills in bytes. An electrical algorithm cannot share
// optical wavelengths, so it is an error naming fabric, the wavelength pool
// on offer.
func opticalTenant(cfg Config, alg Algorithm, fabric string) (tenant, error) {
	if alg == "" {
		alg = AlgWrht
	}
	if isElectrical(alg) {
		return tenant{}, fmt.Errorf("electrical algorithm %q cannot share %s", alg, fabric)
	}
	t := tenant{alg: alg, floor: 1}
	switch alg {
	case AlgWrht, AlgWrhtUnstriped, AlgWrhtPipelined:
		if m := cfg.WrhtGroupSize; m > 0 {
			for core.MaxGroupSize(t.floor) < m {
				t.floor++
			}
		}
	}
	return t, nil
}

// minWidth raises a requested minimum grant to the tenant's floor, so a
// narrow grant can never make the runtime curve fail mid-run. A maximum
// below the floor is an error.
func (t tenant) minWidth(cfg Config, minW, maxW int) (int, error) {
	if t.floor <= minW {
		return minW, nil
	}
	if maxW != 0 && maxW < t.floor {
		return 0, fmt.Errorf("%s with group size m=%d needs at least %d wavelengths, MaxWavelengths is %d",
			t.alg, cfg.WrhtGroupSize, t.floor, maxW)
	}
	return t.floor, nil
}

func simulateFabric(cfg Config, jobs []JobSpec, policy FabricPolicy, sess *session, plan FaultPlan, cancel func() error) (FabricResult, error) {
	if err := cfg.Validate(); err != nil {
		return FabricResult{}, err
	}
	pol, err := policy.internal()
	if err != nil {
		return FabricResult{}, err
	}
	inner := make([]fabric.Job, len(jobs))
	for i, spec := range jobs {
		if spec.Name == "" {
			spec.Name = fmt.Sprintf("job%d", i)
		}
		t, err := opticalTenant(cfg, spec.Algorithm, "the optical fabric")
		if err != nil {
			return FabricResult{}, fmt.Errorf("wrht: job %q: %w", spec.Name, err)
		}
		if err := spec.Validate(); err != nil {
			return FabricResult{}, err
		}
		if t.bytes, err = jobBytes(cfg, spec); err != nil {
			return FabricResult{}, err
		}
		minW, err := t.minWidth(cfg, spec.MinWavelengths, spec.MaxWavelengths)
		if err != nil {
			return FabricResult{}, fmt.Errorf("wrht: job %q: %w", spec.Name, err)
		}
		inner[i] = fabric.Job{
			Name:               spec.Name,
			ArrivalSec:         spec.ArrivalSec,
			Priority:           spec.Priority,
			MinWavelengths:     minW,
			MaxWavelengths:     spec.MaxWavelengths,
			Iterations:         spec.Iterations,
			CheckpointEverySec: spec.CheckpointEverySec,
			Runtime:            sess.runtime(cfg, t.alg, t.bytes),
		}
	}
	rec := sess.recorder()
	proc := ""
	if rec.Enabled() {
		proc = fabricProcName(cfg, jobs, policy)
		if !plan.Empty() {
			// A faulted run records different tracks than the fault-free run
			// of the same mix; keep their recorder processes disjoint.
			proc += fmt.Sprintf(" · faults %08x", plan.hash())
		}
	}
	fp, err := plan.internal()
	if err != nil {
		return FabricResult{}, err
	}
	res, err := fabric.Simulate(cfg.Optical.Wavelengths, inner, pol, fp,
		fabric.SchedOpts{Rec: rec, Proc: proc, Cancel: cancel})
	if err != nil {
		return FabricResult{}, err
	}
	out := FabricResult{
		Policy:          policy,
		Budget:          res.Budget,
		MakespanSec:     res.MakespanSec,
		MeanQueueSec:    res.MeanQueueSec,
		MaxQueueSec:     res.MaxQueueSec,
		MeanSlowdown:    res.MeanSlowdown,
		Fairness:        res.Fairness,
		Utilization:     res.Utilization,
		PeakWavelengths: res.PeakWavelengths,
		RejectedJobs:    res.RejectedJobs,
		JobFaults:       res.JobFaults,
		Evictions:       res.Evictions,
		Retries:         res.Retries,
		FailedJobs:      res.FailedJobs,
		LostWorkSec:     res.LostWorkSec,
		Availability:    res.Availability,
	}
	for _, j := range res.Jobs {
		out.Jobs = append(out.Jobs, FabricJobResult(j))
	}
	for _, ev := range res.Events {
		out.Events = append(out.Events, FabricEvent{
			TimeSec: ev.TimeSec, Job: ev.Job, Kind: ev.Kind.String(), Wavelengths: ev.Wavelengths,
		})
	}
	return out, nil
}

// fabricProcName names one fabric co-simulation's recorder process. The name
// must be unique per (config, job mix, policy) so concurrent simulations on
// a shared session record to disjoint track sets — that isolation is what
// keeps trace exports byte-deterministic across sweep parallelism.
func fabricProcName(cfg Config, jobs []JobSpec, policy FabricPolicy) string {
	h := fnv.New32a()
	for _, j := range jobs {
		fmt.Fprintf(h, "%s|%s|%d|%g|%d|%d|%s;",
			j.Name, j.Model, j.Bytes, j.ArrivalSec, j.Iterations, j.Priority, j.Algorithm)
	}
	return fmt.Sprintf("fabric %s · %d jobs · N=%d λ=%d · mix %08x",
		policy, len(jobs), cfg.Nodes, cfg.Optical.Wavelengths, h.Sum32())
}

// curveKey identifies one point of a tenant's runtime curve. It embeds the
// full Config: runtimes depend on every substrate parameter (optical rates,
// overheads, BytesPerElem, …), and the curves outlive a single call via
// SweepSession, so under-keying would serve one configuration's runtimes to
// another.
type curveKey struct {
	cfg   Config
	alg   Algorithm
	bytes int64
	width int
}

// runtime is a tenant's runtime curve: one all-reduce of bytes under alg at
// stripe budget w, priced by the full single-ring simulation path. Points
// are memoized in the session's fabric cache across the jobs of one
// SimulateFabric call, the policies of CompareFabricPolicies, the concurrent
// points of a fabric-mode RunSweep and the calls of a SweepSession;
// pricing itself runs through the session too, so plans, lowered schedules
// and substrate simulations are shared with every other consumer (different
// grant widths of one tenant reuse one lowered ring schedule). A failed
// point is memoized as its error.
func (s *session) runtime(cfg Config, alg Algorithm, bytes int64) func(int) (float64, error) {
	return func(w int) (float64, error) {
		return s.fabric.Do(curveKey{cfg, alg, bytes, w}, func() (float64, error) {
			c := cfg
			c.Optical.Wavelengths = w
			r, _, err := communicationTime(c, alg, bytes, s)
			if err != nil {
				return 0, err
			}
			if r.Seconds <= 0 || math.IsNaN(r.Seconds) || math.IsInf(r.Seconds, 0) {
				return 0, fmt.Errorf("wrht: degenerate runtime %v at width %d", r.Seconds, w)
			}
			return r.Seconds, nil
		})
	}
}

// CompareFabricPolicies runs the same job mix under every policy, sharing
// one runtime cache across the sweep. Use SweepSession.CompareFabricPolicies
// to additionally share the caches across calls.
func CompareFabricPolicies(cfg Config, jobs []JobSpec, policies []FabricPolicy) ([]FabricResult, error) {
	return compareFabricPolicies(cfg, jobs, policies, newSession())
}

func compareFabricPolicies(cfg Config, jobs []JobSpec, policies []FabricPolicy, sess *session) ([]FabricResult, error) {
	out := make([]FabricResult, 0, len(policies))
	for _, p := range policies {
		r, err := simulateFabric(cfg, jobs, p, sess, FaultPlan{}, nil)
		if err != nil {
			return nil, fmt.Errorf("wrht: policy %s: %w", p, err)
		}
		out = append(out, r)
	}
	return out, nil
}
