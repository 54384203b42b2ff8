package obs

// ProbeSample is one decimated observation of a single storage device's
// internal state. Samples carry only simulation-deterministic values so
// probe artifacts stay byte-identical for any worker count.
type ProbeSample struct {
	// Seconds is the simulation time of the sample.
	Seconds float64 `json:"t"`
	// Device names the probed device within its run, e.g. "battery/0".
	Device string `json:"device"`
	// SoC is the usable-window state of charge in [0, 1].
	SoC float64 `json:"soc"`
	// VoltageV is the open-circuit voltage.
	VoltageV float64 `json:"v"`
	// PowerW is the mean net terminal power since the previous sample of
	// this device (positive discharging, negative charging); zero on the
	// first sample.
	PowerW float64 `json:"w"`
	// AvailAh and BoundAh are the KiBaM wells in ampere-hours (bound is
	// zero for super-capacitors).
	AvailAh float64 `json:"avail_ah"`
	BoundAh float64 `json:"bound_ah"`
	// ThroughputAh is the cumulative discharged charge.
	ThroughputAh float64 `json:"ah"`
	// Run labels the originating run in multi-run artifacts.
	Run string `json:"run,omitempty"`
}

// probeRing is one device's bounded sample history.
type probeRing struct {
	device  string
	samples Ring[ProbeSample]
	dropped int64 // samples overwritten by the ring
	// lastNetWh/lastSec support the power derivative between samples.
	lastNetWh float64
	lastSec   float64
	primed    bool
}

// DefaultProbeRing bounds the samples kept per device: at the default
// 60 s decimation it holds close to three days of simulated history.
const DefaultProbeRing = 4096

// ProbeRecorder collects ring-buffered per-device time series. It is not
// safe for concurrent use; the engine records from its single run
// goroutine, and each run owns its own recorder.
type ProbeRecorder struct {
	ringCap int
	expect  int // the storage a new ring starts with (see Expect)
	rings   []*probeRing
	index   map[string]int
}

// NewProbeRecorder builds a recorder keeping at most ringCap samples per
// device (<= 0 selects DefaultProbeRing).
func NewProbeRecorder(ringCap int) *ProbeRecorder {
	if ringCap <= 0 {
		ringCap = DefaultProbeRing
	}
	return &ProbeRecorder{ringCap: ringCap, index: make(map[string]int)}
}

// Expect sizes each ring created from here on for samples per device,
// capped at the ring capacity, so a run that knows its sample count
// records without regrowing its rings.
func (r *ProbeRecorder) Expect(samples int) { r.expect = min(samples, r.ringCap) }

// ring returns the device's ring, creating it on first use and preserving
// registration order for deterministic output.
func (r *ProbeRecorder) ring(device string) *probeRing {
	if i, ok := r.index[device]; ok {
		return r.rings[i]
	}
	ring := &probeRing{device: device, samples: NewRing[ProbeSample](r.ringCap)}
	ring.samples.buf = make([]ProbeSample, 0, r.expect)
	r.index[device] = len(r.rings)
	r.rings = append(r.rings, ring)
	return ring
}

// Record appends one sample for device at sec simulation seconds. netWh is
// the device's cumulative net output energy (discharged minus charged, in
// watt-hours) from which the recorder derives the mean terminal power
// since the device's previous sample.
func (r *ProbeRecorder) Record(device string, sec float64, soc, voltage, availAh, boundAh, throughputAh, netWh float64) {
	ring := r.ring(device)
	s := ProbeSample{
		Seconds:      sec,
		Device:       device,
		SoC:          soc,
		VoltageV:     voltage,
		AvailAh:      availAh,
		BoundAh:      boundAh,
		ThroughputAh: throughputAh,
	}
	if ring.primed {
		if dt := sec - ring.lastSec; dt > 0 {
			s.PowerW = (netWh - ring.lastNetWh) * 3600 / dt
		}
	}
	ring.lastNetWh = netWh
	ring.lastSec = sec
	ring.primed = true
	if ring.samples.Push(s) {
		ring.dropped++
	}
}

// Devices returns the probed device names in registration order.
func (r *ProbeRecorder) Devices() []string {
	out := make([]string, len(r.rings))
	for i, ring := range r.rings {
		out[i] = ring.device
	}
	return out
}

// Dropped returns how many samples ring overflow discarded across all
// devices.
func (r *ProbeRecorder) Dropped() int64 {
	var n int64
	for _, ring := range r.rings {
		n += ring.dropped
	}
	return n
}

// Samples returns the retained samples, devices in registration order and
// each device's samples in time order (oldest surviving first).
func (r *ProbeRecorder) Samples() []ProbeSample {
	n := 0
	for _, ring := range r.rings {
		n += ring.samples.Len()
	}
	if n == 0 {
		return nil
	}
	out := make([]ProbeSample, 0, n)
	for _, ring := range r.rings {
		out = ring.samples.AppendTo(out)
	}
	return out
}
