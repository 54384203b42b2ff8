package esd

import "fmt"

// This file is the device half of the flight recorder: every Device can
// dump its full mutable state into a JSON-able DeviceState. Configuration
// is deliberately NOT serialized: it is what a resumed run rebuilds from,
// and the checkpoint chain then proves the rebuilt run matches.

// BatteryState is the serialized mutable state of a Battery: the KiBaM
// wells, fault flag, thermal state, energy ledger and wear accumulators.
type BatteryState struct {
	// Q1 and Q2 are the available and bound charge wells in coulombs.
	Q1 float64 `json:"q1"`
	Q2 float64 `json:"q2"`
	// Failed is the injected-fault flag.
	Failed bool `json:"failed,omitempty"`
	// TempC and PeakC are the present and peak cell temperatures.
	TempC float64 `json:"temp_c"`
	PeakC float64 `json:"peak_c"`
	// Stats is the cumulative energy ledger.
	Stats Stats `json:"stats"`
	// ThroughputAh, WeightedAh, LastWeight and PeakWeight mirror the
	// weighted Ah-throughput wear tracker.
	ThroughputAh float64 `json:"throughput_ah"`
	WeightedAh   float64 `json:"weighted_ah"`
	LastWeight   float64 `json:"last_weight"`
	PeakWeight   float64 `json:"peak_weight"`
}

// SupercapState is the serialized mutable state of a Supercap.
type SupercapState struct {
	// V is the open-circuit voltage.
	V float64 `json:"v"`
	// Failed is the injected-fault flag.
	Failed bool `json:"failed,omitempty"`
	// Stats is the cumulative energy ledger.
	Stats Stats `json:"stats"`
}

// DeviceState is a kind-tagged union covering every Device implementation,
// including nested pools.
type DeviceState struct {
	// Kind is "battery", "supercap", "null" or "pool".
	Kind     string         `json:"kind"`
	Battery  *BatteryState  `json:"battery,omitempty"`
	Supercap *SupercapState `json:"supercap,omitempty"`
	// Members holds per-member state for pools, in member order.
	Members []DeviceState `json:"members,omitempty"`
}

// Checkpoint captures the battery's mutable state.
func (b *Battery) Checkpoint() BatteryState {
	return BatteryState{
		Q1:           b.q1,
		Q2:           b.q2,
		Failed:       b.failed,
		TempC:        b.thermal.tempC,
		PeakC:        b.thermal.peakC,
		Stats:        b.stats,
		ThroughputAh: b.wear.throughputAh,
		WeightedAh:   b.wear.weightedAh,
		LastWeight:   b.wear.lastWeight,
		PeakWeight:   b.wear.peakWeight,
	}
}

// Checkpoint captures the bank's mutable state.
func (s *Supercap) Checkpoint() SupercapState {
	return SupercapState{V: s.v, Failed: s.failed, Stats: s.stats}
}

// CheckpointDevice serializes any Device implementation, recursing into
// pools. Unknown implementations are an error: a device the recorder
// cannot serialize must not silently escape the checkpoint. A uniform
// pool first syncs its stale members, so it serializes exactly as the
// per-member pool would.
func CheckpointDevice(d Device) (DeviceState, error) {
	switch v := d.(type) {
	case *Battery:
		st := v.Checkpoint()
		return DeviceState{Kind: "battery", Battery: &st}, nil
	case *Supercap:
		st := v.Checkpoint()
		return DeviceState{Kind: "supercap", Supercap: &st}, nil
	case Null:
		return DeviceState{Kind: "null"}, nil
	case *Pool:
		v.sync()
		out := DeviceState{Kind: "pool", Members: make([]DeviceState, len(v.members))}
		for i, m := range v.members {
			ms, err := CheckpointDevice(m)
			if err != nil {
				return DeviceState{}, fmt.Errorf("esd: pool %q member %d: %w", v.name, i, err)
			}
			out.Members[i] = ms
		}
		return out, nil
	default:
		return DeviceState{}, fmt.Errorf("esd: cannot checkpoint device type %T", d)
	}
}
