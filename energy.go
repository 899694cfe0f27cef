package wrht

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"wrht/internal/energy"
	"wrht/internal/opticalsim"
)

// EnergyReport estimates the energy of one all-reduce (joules).
type EnergyReport struct {
	Algorithm Algorithm
	// DynamicJ is per-bit conversion/traversal energy.
	DynamicJ float64
	// TuningJ is micro-ring retuning energy (optical only).
	TuningJ float64
	// StaticJ is laser / idle power integrated over the operation.
	StaticJ float64
	// TotalJ is the sum.
	TotalJ float64
	// Seconds is the simulated duration the static term integrates over.
	Seconds float64
}

// EnergyEstimate prices one all-reduce in joules using representative
// silicon-photonics and 100GbE energy constants (internal/energy), on top of
// the same simulated schedules CommunicationTime uses. It quantifies the
// paper's "low power cost" motivation.
func EnergyEstimate(cfg Config, alg Algorithm, bytes int64) (EnergyReport, error) {
	// One communicationTime call yields both the simulated duration and the
	// schedule it was simulated from, so the schedule is built exactly once.
	res, s, err := communicationTime(cfg, alg, bytes, nil)
	if err != nil {
		return EnergyReport{}, err
	}
	defer s.Release() // session-free: the transient schedule is ours to recycle
	var b energy.Breakdown
	if isElectrical(alg) {
		b, err = energy.Electrical(s, res.Seconds, energy.DefaultElectricalCosts(), cfg.BytesPerElem)
	} else {
		b, err = energy.Optical(s, res.Seconds, energy.DefaultOpticalCosts(), cfg.BytesPerElem)
	}
	if err != nil {
		return EnergyReport{}, err
	}
	return EnergyReport{
		Algorithm: alg,
		DynamicJ:  b.DynamicJ,
		TuningJ:   b.TuningJ,
		StaticJ:   b.StaticJ,
		TotalJ:    b.TotalJ(),
		Seconds:   res.Seconds,
	}, nil
}

// EventLevelTime runs the message-level discrete-event simulator on an
// optical algorithm's schedule, in barrier (the paper's model) or async
// (node-local dependency) mode, and returns the end-to-end time. Barrier
// mode matches CommunicationTime; async bounds what a runtime could gain by
// dropping global step barriers.
func EventLevelTime(cfg Config, alg Algorithm, bytes int64, async bool) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if isElectrical(alg) {
		return Result{}, fmt.Errorf("wrht: EventLevelTime supports optical algorithms only, got %q", alg)
	}
	if bytes <= 0 {
		return Result{}, fmt.Errorf("wrht: non-positive buffer size %d", bytes)
	}
	elems := int((bytes + int64(cfg.BytesPerElem) - 1) / int64(cfg.BytesPerElem))
	cls, _, _, err := buildClassSchedule(cfg, alg, elems, nil)
	if err != nil {
		return Result{}, err
	}
	defer cls.Release() // session-free: the transient schedule is ours to recycle
	opts := opticalsim.DefaultOptions()
	opts.Params = cfg.Optical
	opts.BytesPerElem = cfg.BytesPerElem
	if alg == AlgORingStriped {
		opts.DefaultWidth = cfg.Optical.Wavelengths
	}
	if async {
		opts.Mode = opticalsim.Async
	}
	r, err := opticalsim.Run(cls, opts)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Algorithm: alg,
		Substrate: fmt.Sprintf("optical-ring(w=%d,%s)", cfg.Optical.Wavelengths, r.Mode),
		Seconds:   r.TotalSec,
		Steps:     cls.NumSteps(),
	}, nil
}

// SaveConfig writes the configuration as indented JSON.
func SaveConfig(cfg Config, path string) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadConfig reads a configuration written by SaveConfig and validates it.
// Unknown fields are rejected to catch typos in hand-edited files.
func LoadConfig(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, err
	}
	var cfg Config
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("wrht: parsing %s: %w", path, err)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, fmt.Errorf("wrht: %s: %w", path, err)
	}
	return cfg, nil
}
