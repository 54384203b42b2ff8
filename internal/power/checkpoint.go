package power

import (
	"time"

	"heb/internal/jsonenc"
	"heb/internal/units"
)

// Flight-recorder state for the power-delivery layer: the relay fabric,
// its servers and the utility feed's meters.

// ServerState is the serialized mutable state of one Server.
type ServerState struct {
	On         bool         `json:"on"`
	Util       float64      `json:"util"`
	Freq       FreqLevel    `json:"freq"`
	Cycles     int          `json:"cycles,omitempty"`
	WastedBoot units.Energy `json:"wasted_boot,omitempty"`
}

// FabricState is the serialized mutable state of the relay fabric and its
// servers, indexed by dense server position (constructor order).
type FabricState struct {
	Assign   []Source          `json:"assign"`
	LastUse  []time.Duration   `json:"last_use"`
	Stuck    []bool            `json:"stuck,omitempty"`
	Offline  int               `json:"offline,omitempty"`
	Switches [NumSources]int64 `json:"switches"`
	Meter    Meter             `json:"meter"`
	Servers  []ServerState     `json:"servers"`
}

// AppendJSON writes the state as json.Marshal does.
func (s *ServerState) AppendJSON(o *jsonenc.Object) {
	o.Bool(`{"on":`, s.On)
	o.Float(`,"util":`, s.Util)
	o.Int(`,"freq":`, int(s.Freq))
	o.IntOmit(`,"cycles":`, s.Cycles)
	o.FloatOmit(`,"wasted_boot":`, float64(s.WastedBoot))
	o.Close()
}

// AppendJSON writes the state as json.Marshal does.
func (s *FabricState) AppendJSON(o *jsonenc.Object) {
	jsonenc.Slice(o, `{"assign":`, s.Assign, func(v *Source, o *jsonenc.Object) { o.Int("", int(*v)) })
	jsonenc.Slice(o, `,"last_use":`, s.LastUse, func(v *time.Duration, o *jsonenc.Object) { o.Int64("", int64(*v)) })
	jsonenc.SliceOmit(o, `,"stuck":`, s.Stuck, func(v *bool, o *jsonenc.Object) { o.Bool("", *v) })
	o.IntOmit(`,"offline":`, s.Offline)
	jsonenc.Slice(o, `,"switches":`, s.Switches[:], func(v *int64, o *jsonenc.Object) { o.Int64("", *v) })
	o.Key(`,"meter":`)
	s.Meter.AppendJSON(o)
	jsonenc.Slice(o, `,"servers":`, s.Servers, (*ServerState).AppendJSON)
	o.Close()
}

// AppendJSON writes the meter as json.Marshal does.
func (m *Meter) AppendJSON(o *jsonenc.Object) {
	o.Float(`{"Utility":`, float64(m.Utility))
	o.Float(`,"Battery":`, float64(m.Battery))
	o.Float(`,"Supercap":`, float64(m.Supercap))
	o.Float(`,"Unserved":`, float64(m.Unserved))
	o.Float(`,"DowntimeServerSeconds":`, m.DowntimeServerSeconds)
	o.Close()
}

// Checkpoint captures the server's mutable state.
func (s *Server) Checkpoint() ServerState {
	return ServerState{On: s.on, Util: s.util, Freq: s.freq, Cycles: s.cycles, WastedBoot: s.wastedBoot}
}

// Checkpoint captures the fabric's mutable state, including every server.
func (f *Fabric) Checkpoint() FabricState {
	f.flushHeld()
	st := FabricState{
		Assign:   append([]Source(nil), f.assign...),
		LastUse:  append([]time.Duration(nil), f.lastUse...),
		Stuck:    append([]bool(nil), f.stuck...),
		Offline:  f.count[SourceOff],
		Switches: f.switches,
		Meter:    f.meter,
		Servers:  make([]ServerState, len(f.servers)),
	}
	for i, s := range f.servers {
		st.Servers[i] = s.Checkpoint()
	}
	return st
}

// UtilityFeedState is the checkpointed utility meters of a run on a
// UtilityFeed: the energy drawn and the peak draw, as the engine meters
// them. A TraceFeed run carries none.
type UtilityFeedState struct {
	Drawn units.Energy `json:"drawn"`
	Peak  units.Power  `json:"peak"`
}

// AppendJSON writes the state as json.Marshal does.
func (s *UtilityFeedState) AppendJSON(o *jsonenc.Object) {
	o.Float(`{"drawn":`, float64(s.Drawn))
	o.Float(`,"peak":`, float64(s.Peak))
	o.Close()
}
