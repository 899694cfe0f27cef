// Fleet-level fault recovery: whole-fabric outages evict every resident job
// (internal/fabric packages each as a Resubmit) and the fleet decides what
// happens next under a RecoveryPolicy — drop the job, hold it for its own
// fabric's repair, or re-place it on a surviving fabric through the normal
// placement policy. Cross-fabric recovery reuses the migration-as-delayed-
// submit machinery from placement: the job pays the target's migration cost
// plus a capped exponential backoff, and — because checkpoints are
// fabric-local — restarts from scratch against the target's runtime curve.
package fleet

import (
	"fmt"

	"wrht/internal/fabric"
	"wrht/internal/faults"
)

// RecoveryPolicy selects what happens to jobs caught in a fabric outage.
type RecoveryPolicy int

const (
	// RetrySameFabric (the default) holds evicted jobs at the fleet layer
	// and resubmits them to their own fabric once it is repaired, resuming
	// from the last checkpoint.
	RetrySameFabric RecoveryPolicy = iota
	// FailFast drops every job caught in an outage (counted in
	// Result.Killed); their in-flight work is charged to LostWorkSec.
	FailFast
	// MigrateOnFailure re-places evicted jobs on the best surviving fabric
	// per the placement policy, restarting from scratch there; when every
	// admissible fabric is down the job waits for the first repair.
	MigrateOnFailure
)

func (p RecoveryPolicy) String() string {
	switch p {
	case RetrySameFabric:
		return "retry-same-fabric"
	case FailFast:
		return "fail-fast"
	case MigrateOnFailure:
		return "migrate-on-failure"
	default:
		return fmt.Sprintf("RecoveryPolicy(%d)", int(p))
	}
}

func (p RecoveryPolicy) validate() error {
	switch p {
	case RetrySameFabric, FailFast, MigrateOnFailure:
		return nil
	default:
		return fmt.Errorf("fleet: unknown recovery policy %v", p)
	}
}

// inject applies one fault event at its scheduled instant. Wavelength and
// job faults are handled entirely inside the target fabric; fabric outages
// bounce every resident job back through recover.
func (f *fleet) inject(ev faults.Event) {
	if f.err != nil {
		return
	}
	switch ev.Kind {
	case faults.WavelengthDown:
		f.scheds[ev.Fabric].WavelengthsDown(ev.Count)
	case faults.WavelengthUp:
		f.scheds[ev.Fabric].WavelengthsUp(ev.Count)
	case faults.JobFault:
		f.scheds[ev.Fabric].InjectJobFault(ev.Pick, ev.Job)
	case faults.FabricDown:
		f.outage(ev.Fabric)
	case faults.FabricUp:
		f.restore(ev.Fabric)
	}
}

// outage takes fabric fi down, evicting every resident job in deterministic
// admission order.
func (f *fleet) outage(fi int) {
	if f.down[fi] {
		return
	}
	f.down[fi] = true
	f.outagesN++
	for _, rs := range f.scheds[fi].Outage() {
		if f.err != nil {
			return
		}
		f.recover(fi, rs)
	}
}

// restore repairs fabric fi and flushes the jobs waiting on it: first its
// own RetrySameFabric backlog, then every job waiting for ANY fabric.
func (f *fleet) restore(fi int) {
	if !f.down[fi] {
		return
	}
	f.down[fi] = false
	f.scheds[fi].Restore()
	same := f.pendSame[fi]
	f.pendSame[fi] = nil
	for _, rs := range same {
		if f.err != nil {
			return
		}
		f.submitRecovered(fi, fi, rs)
	}
	any := f.pendAny
	f.pendAny = nil
	for _, p := range any {
		if f.err != nil {
			return
		}
		f.migrateEvicted(p.from, p.rs)
	}
}

// recover routes one outage-evicted job per the fleet's recovery policy.
// Also invoked (via the scheduler's OnEvict hook) for jobs whose delayed
// submit lands on a fabric that has since gone down.
func (f *fleet) recover(fi int, rs fabric.Resubmit) {
	switch {
	case f.opt.Recovery == FailFast:
		f.killed++
		f.dropStats(&rs)
	case rs.Retries >= f.retry.MaxRetries:
		f.failedN++
		f.dropStats(&rs)
	case f.opt.Recovery == RetrySameFabric:
		f.pendSame[fi] = append(f.pendSame[fi], rs)
	default: // MigrateOnFailure
		f.migrateEvicted(fi, rs)
	}
}

// dropStats finalizes the stats of a job the fleet gives up on: everything
// not already charged as lost work is charged now, and the job's placement
// record (full mode) keeps the terminal stats.
func (f *fleet) dropStats(rs *fabric.Resubmit) {
	if waste := rs.Stats.ServiceSec - rs.Stats.LostWorkSec; waste > 0 {
		rs.Stats.LostWorkSec += waste
		f.lostAdj += waste
	}
	rs.Stats.Failed = true
	if !f.opt.Lite {
		if pi := f.placeIdx[rs.Job.Tag]; pi >= 0 {
			f.placements[pi].Stats = rs.Stats
		}
	}
}

// migrateEvicted re-places one evicted job on the best surviving fabric, or
// parks it until the first repair when nothing admissible is up.
func (f *fleet) migrateEvicted(from int, rs fabric.Resubmit) {
	j := &f.jobs[rs.Job.Tag]
	target := f.choose(j, f.minWidth(j))
	if target < 0 {
		if f.err == nil {
			f.pendAny = append(f.pendAny, pendRes{from: from, rs: rs})
		}
		return
	}
	f.submitRecovered(target, from, rs)
}

// submitRecovered resubmits one recovered job to fabric `target` after its
// retry backoff. `from` is the fabric it last ran on (-1 for a front-door
// arrival that was deferred because its admissible fabrics were all down).
// Landing on a different fabric restarts the job from scratch — checkpoints
// are fabric-local — and pays the target's migration cost when the move is
// a real migration (cross-fabric, or off-affinity for a first placement).
func (f *fleet) submitRecovered(target, from int, rs fabric.Resubmit) {
	now := f.eng.Now()
	ji := rs.Job.Tag
	jb := &f.jobs[ji]
	job := &rs.Job
	delay := f.retry.Delay(rs.Retries)
	rs.Retries++
	moved := target != from
	if moved {
		rs.Remaining, rs.CkptRemaining, rs.CkptService = 1, 1, 0
		if waste := rs.Stats.ServiceSec - rs.Stats.LostWorkSec; waste > 0 {
			rs.Stats.LostWorkSec += waste
			f.lostAdj += waste
		}
		job.MaxWavelengths = jb.MaxWavelengths
		job.Runtime = f.runtimeFor(target, jb.Shape)
		f.placed[target]++
	}
	mig := 0.0
	if (from >= 0 && moved) || (from < 0 && jb.Affinity >= 0 && target != jb.Affinity) {
		mig = f.migrateTo(target)
		delay += mig
	}
	job.ArrivalSec = now + delay
	if err := f.scheds[target].SubmitResumed(&rs); err != nil {
		f.err = err
		return
	}
	if f.opt.Lite {
		return
	}
	if pi := f.placeIdx[ji]; pi >= 0 {
		p := &f.placements[pi]
		p.Fabric = target
		if mig > 0 {
			p.Migrated = true
			p.MigrationSec += mig
		}
	} else {
		f.placeIdx[ji] = len(f.placements)
		f.placements = append(f.placements, PlacedJob{
			Name: job.Name, Fabric: target, Migrated: mig > 0, MigrationSec: mig,
		})
	}
}

// anyDownFits reports whether some currently-down fabric could structurally
// admit a job with floor minW — i.e. whether deferring beats rejecting.
func (f *fleet) anyDownFits(minW int) bool {
	for i, spec := range f.specs {
		if f.down[i] && minW <= spec.Wavelengths {
			return true
		}
	}
	return false
}

// deferArrival parks a front-door arrival whose only admissible fabrics are
// currently down; it re-enters placement at the next repair.
func (f *fleet) deferArrival(i int) {
	now := f.eng.Now()
	fj := f.fabricJob(i, now)
	f.pendAny = append(f.pendAny, pendRes{from: -1, rs: fabric.Resubmit{
		Job:           fj,
		Remaining:     1,
		CkptRemaining: 1,
		Stats:         fabric.JobStats{Name: fj.Name, ArrivalSec: now},
	}})
}

// abandon counts a job still parked at simulation end (a scripted outage
// with no matching repair) as failed.
func (f *fleet) abandon(rs fabric.Resubmit) {
	f.failedN++
	f.dropStats(&rs)
}
