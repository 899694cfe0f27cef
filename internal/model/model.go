// Package model provides closed-form communication-time predictors for every
// all-reduce algorithm in the repository on both substrates, mirroring the
// alpha–beta analyses in the paper and its references. The predictors are
// validated against the flow/wavelength-level simulators (internal/runner)
// to within 1% by tests, and power the group-size optimizer's sweeps and the
// crossover analyses in EXPERIMENTS.md.
package model

import (
	"wrht/internal/core"
	"wrht/internal/electrical"
	"wrht/internal/optical"
)

// ceilDiv is ⌈a/b⌉ for positive b.
func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// ERing predicts the electrical ring all-reduce (paper baseline "E-Ring"):
// 2(n−1) steps, each moving a ⌈S/n⌉ chunk at line rate through the
// non-blocking cluster.
func ERing(n int, bytes int64, p electrical.Params) float64 {
	steps := float64(2 * (n - 1))
	chunkBits := float64(ceilDiv(bytes, int64(n))) * 8
	return steps * (p.PerStepLatencySec + chunkBits/(p.LinkGbps*1e9))
}

// RD predicts electrical recursive doubling (paper baseline "RD"):
// ⌈log2 n⌉ full-buffer exchanges, plus fold/unfold steps when n is not a
// power of two.
func RD(n int, bytes int64, p electrical.Params) float64 {
	pow2, extra := 1, 0
	for pow2*2 <= n {
		pow2 *= 2
	}
	if pow2 != n {
		extra = 2
	}
	steps := float64(log2(pow2) + extra)
	fullBits := float64(bytes) * 8
	return steps * (p.PerStepLatencySec + fullBits/(p.LinkGbps*1e9))
}

// HD predicts electrical halving-doubling: 2·log2(n) steps moving
// 2(n−1)/n·S per node in total (fold/unfold added for non-powers of two).
func HD(n int, bytes int64, p electrical.Params) float64 {
	pow2 := 1
	for pow2*2 <= n {
		pow2 *= 2
	}
	total := 0.0
	if pow2 != n {
		fullBits := float64(bytes) * 8
		total += 2 * (p.PerStepLatencySec + fullBits/(p.LinkGbps*1e9))
	}
	// Halving: S/2, S/4, ...; doubling mirrors.
	remaining := float64(bytes)
	for d := pow2 / 2; d >= 1; d /= 2 {
		remaining /= 2
		total += 2 * (p.PerStepLatencySec + remaining*8/(p.LinkGbps*1e9))
	}
	return total
}

func log2(pow2 int) int {
	l := 0
	for p := 1; p < pow2; p *= 2 {
		l++
	}
	return l
}

// Binomial predicts the electrical binomial reduce+broadcast tree:
// 2⌈log2 n⌉ steps, each moving the full buffer between disjoint node pairs —
// so on the non-blocking cluster every flow runs at line rate and the closed
// form matches the flow-level simulation exactly.
func Binomial(n int, bytes int64, p electrical.Params) float64 {
	steps := float64(2 * core.CeilLogM(2, n))
	fullBits := float64(bytes) * 8
	return steps * (p.PerStepLatencySec + fullBits/(p.LinkGbps*1e9))
}

// ORing predicts the paper's optical ring baseline "O-Ring": the electrical
// ring schedule executed on the WDM ring with a single wavelength per
// transfer (the baseline's defining constraint).
func ORing(n int, bytes int64, p optical.Params) float64 {
	return oRingWidth(n, bytes, p, 1)
}

// ORingStriped is the ablation variant in which each neighbor transfer
// stripes across all w wavelengths. It is bandwidth-optimal on the fabric and
// bounds what any ring schedule can achieve (see EXPERIMENTS.md A1).
func ORingStriped(n int, bytes int64, p optical.Params) float64 {
	return oRingWidth(n, bytes, p, p.Wavelengths)
}

func oRingWidth(n int, bytes int64, p optical.Params, width int) float64 {
	steps := float64(2 * (n - 1))
	chunkBytes := ceilDiv(bytes, int64(n))
	return steps * (p.StepOverheadSec() + p.TransferSec(chunkBytes, width, 1))
}

// CostParamsOf converts the optical substrate constants into the planner's
// reduced cost model (per-step constant = reconfiguration + per-transfer
// conversion overheads, since one transfer's overhead is on every step's
// critical path).
func CostParamsOf(p optical.Params) core.CostParams {
	return core.CostParams{
		GbpsPerWavelength: p.GbpsPerWavelength,
		PerStepSec:        p.StepOverheadSec() + p.PerTransferOverheadSec(),
		PropSecPerHop:     p.PropagationNsPerHop * 1e-9,
	}
}

// Wrht predicts the Wrht plan's communication time on the optical substrate.
func Wrht(plan *core.Plan, bytes int64, p optical.Params) float64 {
	return plan.PredictTime(CostParamsOf(p), bytes)
}

// WrhtPipelined predicts the chunked-pipeline variant's communication time
// (core.PredictPipelinedTime's documented round-splitting approximation).
func WrhtPipelined(plan *core.Plan, bytes int64, p optical.Params, chunks int) float64 {
	return plan.PredictPipelinedTime(CostParamsOf(p), bytes, chunks)
}
