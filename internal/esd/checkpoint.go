package esd

import (
	"fmt"

	"heb/internal/jsonenc"
)

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

// AppendJSON writes the state as json.Marshal does.
func (s *DeviceState) AppendJSON(o *jsonenc.Object) {
	o.Str(`{"kind":`, s.Kind)
	if s.Battery != nil {
		o.Key(`,"battery":`)
		s.Battery.AppendJSON(o)
	}
	if s.Supercap != nil {
		o.Key(`,"supercap":`)
		s.Supercap.AppendJSON(o)
	}
	if len(s.Members) > 0 {
		o.Key(`,"members":[`)
		var from, to int // the bytes of the last member encoded
		for i := range s.Members {
			m := &s.Members[i]
			if i > 0 {
				o.Key(",")
				if m.shares(&s.Members[i-1]) {
					o.B = append(o.B, o.B[from:to]...)
					continue
				}
			}
			from = len(o.B)
			m.AppendJSON(o)
			to = len(o.B)
		}
		o.Key("]")
	}
	o.Close()
}

// shares reports whether s points at prev's state, so it encodes to
// prev's bytes: a uniform pool's members share member 0's.
func (s *DeviceState) shares(prev *DeviceState) bool {
	return s.Kind == prev.Kind && s.Battery == prev.Battery && s.Supercap == prev.Supercap &&
		len(s.Members) == 0 && len(prev.Members) == 0
}

// AppendJSON writes the state as json.Marshal does.
func (s *BatteryState) AppendJSON(o *jsonenc.Object) {
	o.Float(`{"q1":`, s.Q1)
	o.Float(`,"q2":`, s.Q2)
	o.BoolOmit(`,"failed":`, s.Failed)
	o.Float(`,"temp_c":`, s.TempC)
	o.Float(`,"peak_c":`, s.PeakC)
	o.Key(`,"stats":`)
	s.Stats.AppendJSON(o)
	o.Float(`,"throughput_ah":`, s.ThroughputAh)
	o.Float(`,"weighted_ah":`, s.WeightedAh)
	o.Float(`,"last_weight":`, s.LastWeight)
	o.Float(`,"peak_weight":`, s.PeakWeight)
	o.Close()
}

// AppendJSON writes the state as json.Marshal does.
func (s *SupercapState) AppendJSON(o *jsonenc.Object) {
	o.Float(`{"v":`, s.V)
	o.BoolOmit(`,"failed":`, s.Failed)
	o.Key(`,"stats":`)
	s.Stats.AppendJSON(o)
	o.Close()
}

// AppendJSON writes the ledger as json.Marshal does.
func (s *Stats) AppendJSON(o *jsonenc.Object) {
	o.Float(`{"EnergyIn":`, float64(s.EnergyIn))
	o.Float(`,"EnergyOut":`, float64(s.EnergyOut))
	o.Float(`,"Loss":`, float64(s.Loss))
	o.Float(`,"ThroughputAh":`, s.ThroughputAh)
	o.Float(`,"WeightedAh":`, s.WeightedAh)
	o.Int64(`,"DischargeTime":`, int64(s.DischargeTime))
	o.Close()
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
// pool checkpoints member 0 once and every member shares that state —
// what its stale members would hold once synced — so it serializes
// exactly as the per-member pool would, at a cost that does not grow
// with its size.
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
		out := DeviceState{Kind: "pool", Members: make([]DeviceState, len(v.members))}
		live := v.live()
		for i, m := range v.members[:live] {
			ms, err := CheckpointDevice(m)
			if err != nil {
				return DeviceState{}, fmt.Errorf("esd: pool %q member %d: %w", v.name, i, err)
			}
			out.Members[i] = ms
		}
		for i := live; i < len(out.Members); i++ {
			out.Members[i] = out.Members[0]
		}
		return out, nil
	default:
		return DeviceState{}, fmt.Errorf("esd: cannot checkpoint device type %T", d)
	}
}
