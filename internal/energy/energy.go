// Package energy estimates the energy of an all-reduce on either substrate,
// quantifying the paper's "low power cost" motivation for optical
// interconnects. Optical transfers pay conversion energy only at the
// endpoints (pass-through nodes stay in the optical domain — the structural
// advantage), plus micro-ring tuning per transmission and static laser power
// for the duration of the operation. Electrical transfers pay NIC energy at
// both endpoints and switch traversal energy per hop.
package energy

import (
	"fmt"
)

// Schedule is the accounting view of a collective schedule; both
// *collective.Schedule and *collective.ClassSchedule satisfy it, so the
// estimators accept either representation.
type Schedule interface {
	// TotalTrafficElems is the total number of elements moved.
	TotalTrafficElems() int64
	// TotalTransfers is the number of point-to-point transfers.
	TotalTransfers() int
	// Nodes is the participant count.
	Nodes() int
}

// OpticalCosts are per-event energy constants for the WDM ring
// (silicon-photonics literature values; see DESIGN.md §4).
type OpticalCosts struct {
	// SerDesPJPerBit + EOPJPerBit + OEPJPerBit are charged once per bit at
	// the transfer endpoints (≈1–4 pJ/bit total for integrated photonics).
	SerDesPJPerBit float64
	EOPJPerBit     float64
	OEPJPerBit     float64
	// TuningNJPerTransfer is the thermal micro-ring retuning energy charged
	// per transmission.
	TuningNJPerTransfer float64
	// LaserMWPerNode is the static comb-laser + thermal-stabilization wall
	// power per node, integrated over the operation's duration.
	LaserMWPerNode float64
}

// DefaultOpticalCosts returns representative silicon-photonics constants.
func DefaultOpticalCosts() OpticalCosts {
	return OpticalCosts{
		SerDesPJPerBit:      1.3,
		EOPJPerBit:          0.3,
		OEPJPerBit:          0.4,
		TuningNJPerTransfer: 25,
		LaserMWPerNode:      200,
	}
}

// ElectricalCosts are per-event energy constants for the packet network.
type ElectricalCosts struct {
	// NICPJPerBit is charged twice per bit (send + receive endpoints).
	NICPJPerBit float64
	// SwitchPJPerBit is charged once per bit per switch traversed.
	SwitchPJPerBit float64
	// SwitchesPerPath is the number of switches a flow crosses (1 for the
	// non-blocking cluster, 2–3 for the fat-tree).
	SwitchesPerPath int
	// IdleMWPerNode is the static NIC/serdes wall power per node.
	IdleMWPerNode float64
}

// DefaultElectricalCosts returns representative 100GbE constants.
func DefaultElectricalCosts() ElectricalCosts {
	return ElectricalCosts{
		NICPJPerBit:     6,
		SwitchPJPerBit:  12,
		SwitchesPerPath: 1,
		IdleMWPerNode:   400,
	}
}

// Breakdown is an energy estimate split by origin, in joules.
type Breakdown struct {
	DynamicJ float64 // per-bit conversion / traversal energy
	TuningJ  float64 // micro-ring retuning (optical only)
	StaticJ  float64 // laser / idle power × duration
}

// TotalJ sums the breakdown.
func (b Breakdown) TotalJ() float64 { return b.DynamicJ + b.TuningJ + b.StaticJ }

// scheduleBits returns total transmitted bits and transfer count.
func scheduleBits(s Schedule, bytesPerElem int) (float64, int, error) {
	if bytesPerElem < 1 {
		return 0, 0, fmt.Errorf("energy: bytes per elem %d", bytesPerElem)
	}
	bits := float64(s.TotalTrafficElems()) * float64(bytesPerElem) * 8
	return bits, s.TotalTransfers(), nil
}

// Optical estimates the energy of running the schedule on the WDM ring,
// given the operation's simulated duration (for the static laser term).
func Optical(s Schedule, durationSec float64, c OpticalCosts, bytesPerElem int) (Breakdown, error) {
	if durationSec < 0 {
		return Breakdown{}, fmt.Errorf("energy: negative duration %v", durationSec)
	}
	bits, transfers, err := scheduleBits(s, bytesPerElem)
	if err != nil {
		return Breakdown{}, err
	}
	perBit := (c.SerDesPJPerBit + c.EOPJPerBit + c.OEPJPerBit) * 1e-12
	return Breakdown{
		DynamicJ: bits * perBit,
		TuningJ:  float64(transfers) * c.TuningNJPerTransfer * 1e-9,
		StaticJ:  float64(s.Nodes()) * c.LaserMWPerNode * 1e-3 * durationSec,
	}, nil
}

// Electrical estimates the energy of running the schedule on the packet
// network, given the operation's simulated duration.
func Electrical(s Schedule, durationSec float64, c ElectricalCosts, bytesPerElem int) (Breakdown, error) {
	if durationSec < 0 {
		return Breakdown{}, fmt.Errorf("energy: negative duration %v", durationSec)
	}
	if c.SwitchesPerPath < 0 {
		return Breakdown{}, fmt.Errorf("energy: switches per path %d", c.SwitchesPerPath)
	}
	bits, _, err := scheduleBits(s, bytesPerElem)
	if err != nil {
		return Breakdown{}, err
	}
	perBit := (2*c.NICPJPerBit + float64(c.SwitchesPerPath)*c.SwitchPJPerBit) * 1e-12
	return Breakdown{
		DynamicJ: bits * perBit,
		StaticJ:  float64(s.Nodes()) * c.IdleMWPerNode * 1e-3 * durationSec,
	}, nil
}
