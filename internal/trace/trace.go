// Package trace simulates one data-parallel SGD training iteration: backprop
// produces per-layer gradients in reverse layer order, gradients are fused
// into buckets (internal/dnn), and each bucket's all-reduce overlaps the
// remaining backward compute — the standard DDP pipeline. The package
// quantifies the paper's motivating claim (communication occupies 50–90% of
// iteration time on electrical networks at scale) and shows how Wrht changes
// the balance; see examples/ddp_training and BenchmarkTrainingIteration.
package trace

import (
	"fmt"

	"wrht/internal/dnn"
)

// ComputeModel is the per-worker compute cost of one iteration.
type ComputeModel struct {
	ForwardSec  float64
	BackwardSec float64
}

// Validate checks the compute model.
func (c ComputeModel) Validate() error {
	if c.ForwardSec < 0 || c.BackwardSec <= 0 {
		return fmt.Errorf("trace: invalid compute model %+v", c)
	}
	return nil
}

// DefaultCompute returns representative single-GPU iteration times (batch 32,
// V100-class accelerator) for the paper's four models. The absolute values
// are synthetic stand-ins — the paper does not publish its compute times —
// but their relative magnitudes track the models' costs, which is what the
// overlap analysis is sensitive to.
func DefaultCompute(m dnn.Model) ComputeModel {
	switch m.Name {
	case "AlexNet":
		return ComputeModel{ForwardSec: 5e-3, BackwardSec: 10e-3}
	case "VGG16":
		return ComputeModel{ForwardSec: 30e-3, BackwardSec: 60e-3}
	case "ResNet50":
		return ComputeModel{ForwardSec: 20e-3, BackwardSec: 40e-3}
	case "GoogLeNet":
		return ComputeModel{ForwardSec: 10e-3, BackwardSec: 20e-3}
	default:
		// Scale with parameter count relative to ResNet50.
		f := float64(m.TotalParams()) / 25.5e6
		return ComputeModel{ForwardSec: 20e-3 * f, BackwardSec: 40e-3 * f}
	}
}

// CommTimer prices one fused-bucket all-reduce of the given byte size.
type CommTimer func(bytes int64) float64

// IterationResult describes one simulated training iteration.
type IterationResult struct {
	// ComputeSec is forward + backward compute.
	ComputeSec float64
	// CommSec is the total all-reduce busy time (sum over buckets).
	CommSec float64
	// ExposedCommSec is the communication time not hidden behind backprop.
	ExposedCommSec float64
	// IterationSec is the wall-clock iteration time.
	IterationSec float64
	// Buckets is the number of fused all-reduces issued.
	Buckets int
	// CommShare is CommSec / (serial compute + comm) — the paper's
	// "communication may occupy 50–90% of per-iteration time" metric,
	// i.e. the share if nothing were overlapped.
	CommShare float64
	// ScalingEfficiency is ComputeSec+overhead-free time over IterationSec.
	ScalingEfficiency float64
}

// SimulateIteration runs the bucketed-overlap pipeline for one iteration.
//
// Backward compute is distributed over layers proportionally to their
// parameter counts (a standard first-order proxy); bucket b's all-reduce can
// start once backprop has passed its earliest layer and the previous bucket's
// all-reduce finished (all-reduces serialize on the network, in backprop
// order, as DDP implementations do). The iteration ends when both backprop
// and the last all-reduce are done, plus the forward pass of the next step.
func SimulateIteration(m dnn.Model, cm ComputeModel, bucketCapBytes int64,
	bytesPerElem int, comm CommTimer) (IterationResult, error) {
	if err := cm.Validate(); err != nil {
		return IterationResult{}, err
	}
	if comm == nil {
		return IterationResult{}, fmt.Errorf("trace: nil CommTimer")
	}
	buckets, err := m.Buckets(bucketCapBytes, bytesPerElem)
	if err != nil {
		return IterationResult{}, err
	}
	total := m.TotalParams()
	if total == 0 {
		return IterationResult{}, fmt.Errorf("trace: model %s has no parameters", m.Name)
	}

	// prefix[i] = params of layers [0, i); backprop reaches layer i's
	// gradient at time BackwardSec * (total - prefix[i]) / total.
	prefix := make([]int64, len(m.Layers)+1)
	for i, l := range m.Layers {
		prefix[i+1] = prefix[i] + l.Params
	}
	gradReady := func(layer int) float64 {
		return cm.BackwardSec * float64(total-prefix[layer]) / float64(total)
	}

	res := IterationResult{
		ComputeSec: cm.ForwardSec + cm.BackwardSec,
		Buckets:    len(buckets),
	}
	commFree := 0.0 // when the network is next free
	lastDone := 0.0
	for _, b := range buckets {
		ready := gradReady(b.FirstLayer)
		start := ready
		if commFree > start {
			start = commFree
		}
		d := comm(b.Params * int64(bytesPerElem))
		if d < 0 {
			return IterationResult{}, fmt.Errorf("trace: negative comm time %v", d)
		}
		res.CommSec += d
		commFree = start + d
		lastDone = commFree
	}
	backDone := cm.BackwardSec
	end := backDone
	if lastDone > end {
		end = lastDone
	}
	res.ExposedCommSec = end - backDone
	res.IterationSec = cm.ForwardSec + end
	serial := res.ComputeSec + res.CommSec
	if serial > 0 {
		res.CommShare = res.CommSec / serial
	}
	if res.IterationSec > 0 {
		res.ScalingEfficiency = res.ComputeSec / res.IterationSec
	}
	return res, nil
}
