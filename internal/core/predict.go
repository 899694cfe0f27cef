package core

import (
	"fmt"
	"math"

	"wrht/internal/ring"
)

// CostParams is the minimal optical cost model the planner's optimizer needs.
// It mirrors the per-transfer structure of internal/optical's full timing
// model without importing it (the substrate packages sit above the planner).
type CostParams struct {
	// GbpsPerWavelength is the line rate of a single wavelength channel.
	GbpsPerWavelength float64
	// PerStepSec is the fixed overhead charged once per synchronous step
	// (micro-ring tuning + control plane + SerDes + E/O + O/E).
	PerStepSec float64
	// PropSecPerHop is the per-hop propagation delay.
	PropSecPerHop float64
}

// DefaultCostParams matches internal/optical's defaults: 25 Gb/s channels,
// ≈3 µs per-step overhead (2 µs MRR tuning + 1 µs control + conversion
// latencies), 10 ns/hop.
func DefaultCostParams() CostParams {
	return CostParams{
		GbpsPerWavelength: 25,
		PerStepSec:        3.02e-6,
		PropSecPerHop:     10e-9,
	}
}

// PredictTime returns the analytic communication time for all-reducing
// `bytes` bytes under this plan: every step costs the fixed overhead, the
// propagation of its longest arc, and the serialization of the full buffer
// over that step's stripe width. It matches the event-accurate optical
// substrate exactly when every step's First-Fit assignment fits in one
// round, as on the paper's grid. Otherwise it under-predicts: by up to
// 36.9% at w ≤ 16 in a 300-point seeded sample. The root package's
// Result.PredictedSeconds documents the measured limits.
func (p *Plan) PredictTime(c CostParams, bytes int64) float64 {
	if c.GbpsPerWavelength <= 0 {
		panic(fmt.Sprintf("core: non-positive wavelength rate %v", c.GbpsPerWavelength))
	}
	bits := float64(bytes) * 8
	chanBps := c.GbpsPerWavelength * 1e9
	total := 0.0
	treeStep := func(lvl Level) float64 {
		return c.PerStepSec +
			float64(lvl.MaxHops)*c.PropSecPerHop +
			bits/(float64(p.TreeStripe)*chanBps)
	}
	for _, lvl := range p.ReduceLevels {
		total += 2 * treeStep(lvl) // reduce + mirrored broadcast
	}
	if p.A2AReps != nil {
		total += c.PerStepSec +
			float64(p.a2aMaxHops())*c.PropSecPerHop +
			bits/(float64(p.A2AStripe)*chanBps)
	}
	return total
}

// a2aMaxHops returns the longest shortest-path arc between any two
// representatives of the all-to-all step (0 when the plan has none).
func (p *Plan) a2aMaxHops() int {
	maxHops := 0
	for i, src := range p.A2AReps {
		for j, dst := range p.A2AReps {
			if i == j {
				continue
			}
			cw := p.Topo.Dist(src, dst, ring.CW)
			ccw := p.Topo.N() - cw
			h := cw
			if ccw < h {
				h = ccw
			}
			if h > maxHops {
				maxHops = h
			}
		}
	}
	return maxHops
}

// PredictPipelinedTime approximates the time of the chunked-pipeline
// schedule (PipelinedSchedule) under the reduced cost model: chunk c enters
// stage s at global step s+c, so step t runs every stage s with
// 0 ≤ t−s < chunks concurrently. Each step pays the fixed overhead once; its
// concurrent stages' wavelength demands add up, and when they exceed the
// budget the substrate splits the step into ⌈demand/w⌉ sequential rounds,
// each bounded by the slowest active transfer — which is what this model
// charges. When every step's aggregate demand fits the budget (true for the
// evaluation defaults, where stripes are sized so each stage fits), the
// prediction matches the wavelength-level simulation exactly; when steps
// split into rounds it is a documented approximation (the summed demand
// ignores wavelength reuse between link-disjoint stages, and the simulator's
// round packing is not uniform), validated by tests at a loose tolerance
// rather than the 1% the unpipelined predictors meet. Consistent with
// PredictTime at chunks = 1.
func (p *Plan) PredictPipelinedTime(c CostParams, bytes int64, chunks int) float64 {
	if chunks <= 1 {
		return p.PredictTime(c, bytes)
	}
	if c.GbpsPerWavelength <= 0 {
		panic(fmt.Sprintf("core: non-positive wavelength rate %v", c.GbpsPerWavelength))
	}
	type cost struct {
		demand int     // wavelengths the stage lights (after striping)
		hops   int     // longest arc of the stage
		serSec float64 // one chunk's serialization over the stage's stripe
	}
	chanBps := c.GbpsPerWavelength * 1e9
	chunkBits := float64(bytes) * 8 / float64(chunks)
	var stages []cost
	for _, s := range p.stages() {
		stripe, hops := p.A2AStripe, 0
		if s.level >= 0 {
			stripe, hops = p.TreeStripe, p.ReduceLevels[s.level].MaxHops
		} else {
			hops = p.a2aMaxHops()
		}
		stages = append(stages, cost{
			demand: p.demand(s),
			hops:   hops,
			serSec: chunkBits / (float64(stripe) * chanBps),
		})
	}

	total := 0.0
	for t := 0; t < len(stages)+chunks-1; t++ {
		demand, hops, ser := 0, 0, 0.0
		for s := range stages {
			if ci := t - s; ci < 0 || ci >= chunks {
				continue
			}
			demand += stages[s].demand
			if stages[s].hops > hops {
				hops = stages[s].hops
			}
			if stages[s].serSec > ser {
				ser = stages[s].serSec
			}
		}
		rounds := (demand + p.W - 1) / p.W
		if rounds < 1 {
			rounds = 1
		}
		total += c.PerStepSec + float64(rounds)*(float64(hops)*c.PropSecPerHop+ser)
	}
	return total
}

// ChooseM searches group sizes m ∈ [2, min(2w+1, N)] and both all-to-all
// policies for the plan with the smallest predicted time on opts.Cost,
// breaking ties toward fewer steps, then smaller m. opts.M is ignored.
//
// Every candidate is ranked at a nominal 100 MB buffer, so the pick suits
// bandwidth-bound buffers only: at w=64 a forced m priced faster than the
// automatic one at 40 of 40 seeded node counts for 1 KB and 64 KB buffers,
// 5 of 40 for 1 MB and none from 25 MB up. Where the closed form itself is
// approximate (w ≤ 16), see the root package's Result.PredictedSeconds.
func ChooseM(n, w int, opts Options) (*Plan, error) {
	const nominalBytes = 100 << 20
	var best *Plan
	bestTime := math.Inf(1)
	maxM := MaxGroupSize(w)
	if maxM > n {
		maxM = n
	}
	if maxM < 2 {
		maxM = 2
	}
	for _, policy := range []A2APolicy{A2AFormula, A2AGreedy} {
		for m := 2; m <= maxM; m++ {
			o := opts
			o.M = m
			o.Policy = policy
			p, err := BuildPlan(n, w, o)
			if err != nil {
				return nil, fmt.Errorf("core: ChooseM at m=%d: %w", m, err)
			}
			t := p.PredictTime(opts.Cost, nominalBytes)
			if better(t, p, bestTime, best) {
				best, bestTime = p, t
			}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("core: no feasible plan for n=%d w=%d", n, w)
	}
	return best, nil
}

// better orders candidate plans: lower predicted time, then fewer steps,
// then smaller m, then formula policy (deterministic tie-breaking).
func better(t float64, p *Plan, bestTime float64, best *Plan) bool {
	if best == nil {
		return true
	}
	const eps = 1e-12
	switch {
	case t < bestTime-eps:
		return true
	case t > bestTime+eps:
		return false
	}
	if p.NumSteps() != best.NumSteps() {
		return p.NumSteps() < best.NumSteps()
	}
	if p.M != best.M {
		return p.M < best.M
	}
	return p.Policy == A2AFormula && best.Policy != A2AFormula
}
