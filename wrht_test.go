package wrht

import (
	"context"
	"math"
	"testing"

	"wrht/internal/collective"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig(128).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := DefaultConfig(1).Validate(); err == nil {
		t.Fatal("1-node config accepted")
	}
}

func TestModelsCatalog(t *testing.T) {
	ms := Models()
	if len(ms) != 4 {
		t.Fatalf("%d models", len(ms))
	}
	if ms[0].Name != "AlexNet" || ms[0].Params != 62_378_344 || ms[0].Bytes != 4*62_378_344 {
		t.Fatalf("AlexNet spec: %+v", ms[0])
	}
	if MustModel("VGG16").Params != 138_357_544 {
		t.Fatal("MustModel VGG16")
	}
}

func TestMustModelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustModel of unknown name did not panic")
		}
	}()
	MustModel("nope")
}

func TestCommunicationTimeAllAlgorithms(t *testing.T) {
	cfg := DefaultConfig(64)
	for _, alg := range Algorithms() {
		res, err := CommunicationTime(cfg, alg, 32<<20)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.Seconds <= 0 {
			t.Fatalf("%s: non-positive time %v", alg, res.Seconds)
		}
		if res.Steps <= 0 {
			t.Fatalf("%s: steps %d", alg, res.Steps)
		}
		if res.PredictedSeconds > 0 {
			rel := math.Abs(res.Seconds-res.PredictedSeconds) / res.PredictedSeconds
			if rel > 0.02 {
				t.Errorf("%s: simulation %.6g vs prediction %.6g (%.2f%%)",
					alg, res.Seconds, res.PredictedSeconds, 100*rel)
			}
		}
	}
}

func TestCompareOrderingFigure2(t *testing.T) {
	// The paper's Figure-2 ordering at the flagship point (VGG16, N=1024):
	// WRHT < E-Ring < O-Ring < RD with default parameters.
	cfg := DefaultConfig(1024)
	res, err := Compare(cfg, PaperAlgorithms(), MustModel("VGG16").Bytes)
	if err != nil {
		t.Fatal(err)
	}
	byAlg := map[Algorithm]float64{}
	for _, r := range res {
		byAlg[r.Algorithm] = r.Seconds
	}
	if !(byAlg[AlgWrht] < byAlg[AlgERing]) {
		t.Errorf("WRHT (%v) should beat E-Ring (%v)", byAlg[AlgWrht], byAlg[AlgERing])
	}
	if !(byAlg[AlgERing] < byAlg[AlgORing]) {
		t.Errorf("E-Ring (%v) should beat O-Ring (%v)", byAlg[AlgERing], byAlg[AlgORing])
	}
	if !(byAlg[AlgWrht] < byAlg[AlgRD]) {
		t.Errorf("WRHT (%v) should beat RD (%v)", byAlg[AlgWrht], byAlg[AlgRD])
	}
}

func TestVerifyAlgorithmAll(t *testing.T) {
	cfg := DefaultConfig(24)
	for _, alg := range Algorithms() {
		if err := VerifyAlgorithm(cfg, alg, 33); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
	}
}

func TestPlanSummary(t *testing.T) {
	cfg := DefaultConfig(1024)
	p, err := Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Steps <= 0 || p.GroupSize < 2 || p.Description == "" {
		t.Fatalf("bad plan summary: %+v", p)
	}
	if p.Steps > p.StepsUpperBnd {
		t.Fatalf("steps %d exceed bound %d", p.Steps, p.StepsUpperBnd)
	}
	for _, d := range p.StepDemands {
		if d > cfg.Optical.Wavelengths {
			t.Fatalf("step demand %d exceeds budget", d)
		}
	}
	// Fixed group size is honored.
	cfg.WrhtGroupSize = 5
	p5, err := Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p5.GroupSize != 5 {
		t.Fatalf("fixed group size ignored: %d", p5.GroupSize)
	}
}

func TestTrainingIteration(t *testing.T) {
	cfg := DefaultConfig(1024)
	e, err := TrainingIteration(cfg, AlgERing, "VGG16", 25<<20)
	if err != nil {
		t.Fatal(err)
	}
	w, err := TrainingIteration(cfg, AlgWrht, "VGG16", 25<<20)
	if err != nil {
		t.Fatal(err)
	}
	if w.IterationSec >= e.IterationSec {
		t.Fatalf("Wrht iteration %.4g not faster than E-Ring %.4g", w.IterationSec, e.IterationSec)
	}
	if e.CommShare < 0.5 {
		t.Fatalf("E-Ring comm share %.2f below the paper's motivating band", e.CommShare)
	}
	if w.ScalingEfficiency <= e.ScalingEfficiency {
		t.Fatalf("Wrht efficiency %.2f not above E-Ring %.2f", w.ScalingEfficiency, e.ScalingEfficiency)
	}
	if _, err := TrainingIteration(cfg, AlgWrht, "nope", 25<<20); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestCommunicationTimeValidation(t *testing.T) {
	cfg := DefaultConfig(16)
	if _, err := CommunicationTime(cfg, AlgWrht, 0); err == nil {
		t.Fatal("zero bytes accepted")
	}
	if _, err := CommunicationTime(cfg, Algorithm("bogus"), 1024); err == nil {
		t.Fatal("bogus algorithm accepted")
	}
	bad := cfg
	bad.Nodes = 0
	if _, err := CommunicationTime(bad, AlgWrht, 1024); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestOversizedBuffersRejected: a buffer past collective.MaxElems elements
// (8 GiB at FP32) is an error at every buffer-sized entry point. The
// schedule forms index regions as int32, so such a buffer used to wrap into
// a tiny wrong price, fail validation, or panic, depending on the path.
// math.MaxInt64 bytes checks that rounding up to whole elements cannot
// overflow into a negative count. A 4 KiB control buffer must pass every
// entry, so each rejection is the size's doing.
func TestOversizedBuffersRejected(t *testing.T) {
	cfg := DefaultConfig(16)
	fabrics := []FleetFabricSpec{{Nodes: 16, Wavelengths: 8}}
	for _, bytes := range []int64{4 << 10, 4 << 31, 1 << 40, math.MaxInt64} {
		oversized := bytes/int64(cfg.BytesPerElem) > collective.MaxElems
		entries := map[string]func() error{
			"Compare": func() error { _, err := Compare(cfg, Algorithms(), bytes); return err },
			"SweepSession.CommunicationTimeContext": func() error {
				_, err := NewSweepSession().CommunicationTimeContext(context.Background(), cfg, AlgRD, bytes)
				return err
			},
			"EnergyEstimate/rd":   func() error { _, err := EnergyEstimate(cfg, AlgRD, bytes); return err },
			"EnergyEstimate/wrht": func() error { _, err := EnergyEstimate(cfg, AlgWrht, bytes); return err },
			"EventLevelTime":      func() error { _, err := EventLevelTime(cfg, AlgWrht, bytes, true); return err },
			"ScheduleOutline":     func() error { _, err := ScheduleOutline(cfg, AlgORing, bytes); return err },
			"InspectScheduleClasses": func() error {
				_, err := InspectScheduleClasses(cfg, AlgHD, bytes)
				return err
			},
			"VerifyAlgorithm": func() error { return VerifyAlgorithm(cfg, AlgRD, int(bytes/4)) },
			"MultiRackTime":   func() error { _, err := MultiRackTime(cfg, 2, 8, bytes); return err },
			"SimulateFabric": func() error {
				_, err := SimulateFabric(cfg, []JobSpec{{Bytes: bytes}}, FabricPolicy{Kind: FabricStatic})
				return err
			},
			"SimulateFleet": func() error {
				_, err := SimulateFleet(cfg, fabrics, []FleetShape{{Bytes: bytes}},
					[]FleetJob{{Affinity: -1}}, FleetOptions{})
				return err
			},
			"RunSweep": func() error {
				res, err := RunSweep(SweepSpec{Base: cfg, MessageBytes: []int64{bytes},
					Algorithms: []Algorithm{AlgWrht, AlgBinomial}})
				if err != nil {
					return err
				}
				for _, c := range res.Cells {
					if c.Err == nil {
						return nil
					}
				}
				return res.Cells[0].Err
			},
		}
		for _, alg := range Algorithms() {
			entries["CommunicationTime/"+string(alg)] = func() error {
				_, err := CommunicationTime(cfg, alg, bytes)
				return err
			}
		}
		for name, call := range entries {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s(%d bytes) panicked: %v", name, bytes, r)
					}
				}()
				err := call()
				switch {
				case oversized && err == nil:
					t.Errorf("%s(%d bytes) accepted a buffer past %d elements", name, bytes, collective.MaxElems)
				case !oversized && err != nil:
					t.Errorf("%s(%d bytes): %v", name, bytes, err)
				}
			}()
		}
	}
}

func TestWrhtStripingAblationViaConfig(t *testing.T) {
	cfg := DefaultConfig(256)
	bytes := MustModel("ResNet50").Bytes
	striped, err := CommunicationTime(cfg, AlgWrht, bytes)
	if err != nil {
		t.Fatal(err)
	}
	unstriped, err := CommunicationTime(cfg, AlgWrhtUnstriped, bytes)
	if err != nil {
		t.Fatal(err)
	}
	if striped.Seconds >= unstriped.Seconds {
		t.Fatalf("striping should help: %v vs %v", striped.Seconds, unstriped.Seconds)
	}
}

func TestTrainingIterationAllAlgorithms(t *testing.T) {
	// Regression: AlgBinomial and AlgWrhtPipelined used to fail because
	// commTimer had no arm for them even though CommunicationTime supports
	// both. Every public algorithm must now produce a coherent iteration.
	cfg := DefaultConfig(64)
	for _, alg := range Algorithms() {
		rep, err := TrainingIteration(cfg, alg, "ResNet50", 25<<20)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if rep.IterationSec <= 0 || rep.CommSec <= 0 || rep.Buckets <= 0 {
			t.Fatalf("%s: degenerate report %+v", alg, rep)
		}
		if rep.IterationSec < rep.ComputeSec {
			t.Fatalf("%s: iteration %.6g shorter than compute %.6g",
				alg, rep.IterationSec, rep.ComputeSec)
		}
		if rep.ExposedCommSec < 0 || rep.CommShare <= 0 || rep.CommShare >= 1 {
			t.Fatalf("%s: bad overlap accounting %+v", alg, rep)
		}
	}
}

func TestTrainingIterationRejectsNegativePipelineChunks(t *testing.T) {
	// Regression: a negative chunk count used to be priced silently with the
	// unpipelined model while CommunicationTime rejected it.
	cfg := DefaultConfig(64)
	cfg.PipelineChunks = -1
	if _, err := TrainingIteration(cfg, AlgWrhtPipelined, "ResNet50", 25<<20); err == nil {
		t.Fatal("negative PipelineChunks accepted")
	}
	if _, err := CommunicationTime(cfg, AlgWrhtPipelined, 1<<20); err == nil {
		t.Fatal("CommunicationTime accepted negative PipelineChunks")
	}
}
