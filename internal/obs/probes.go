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
}

// DefaultProbeRing bounds the samples kept per device: at the default
// 60 s decimation it holds close to three days of simulated history.
const DefaultProbeRing = 4096

// ProbeRecorder collects ring-buffered per-device time series. It is not
// safe for concurrent use; the engine records from its single run
// goroutine, and each run owns its own recorder.
type ProbeRecorder struct {
	ringCap int
	rings   []probeRing // in AddDevice order
}

// NewProbeRecorder builds a recorder keeping at most ringCap samples per
// device (<= 0 selects DefaultProbeRing).
func NewProbeRecorder(ringCap int) *ProbeRecorder {
	if ringCap <= 0 {
		ringCap = DefaultProbeRing
	}
	return &ProbeRecorder{ringCap: ringCap}
}

// AddDevice registers a device and returns the index Record takes for
// it. Its ring starts with room for samples (>= 0) values, capped at the
// ring capacity, so a run that registers its sample count records
// without regrowing the ring.
func (r *ProbeRecorder) AddDevice(device string, samples int) int {
	ring := probeRing{device: device, samples: NewRing[ProbeSample](r.ringCap)}
	ring.samples.buf = make([]ProbeSample, 0, min(samples, r.ringCap))
	r.rings = append(r.rings, ring)
	return len(r.rings) - 1
}

// Record writes one sample for device (an AddDevice index) at sec
// simulation seconds straight into its ring. netWh is the device's
// cumulative net output energy (discharged minus charged, in watt-hours)
// from which the recorder derives the mean terminal power since the
// device's previous sample.
func (r *ProbeRecorder) Record(device int, sec float64, soc, voltage, availAh, boundAh, throughputAh, netWh float64) {
	ring := &r.rings[device]
	primed := ring.samples.Len() > 0
	s, overwrote := ring.samples.Slot()
	if overwrote {
		ring.dropped++
	}
	s.Seconds, s.Device, s.SoC, s.VoltageV = sec, ring.device, soc, voltage
	s.AvailAh, s.BoundAh, s.ThroughputAh = availAh, boundAh, throughputAh
	s.PowerW = 0 // Run stays empty: the capture labels its copy
	if dt := sec - ring.lastSec; primed && dt > 0 {
		s.PowerW = (netWh - ring.lastNetWh) * 3600 / dt
	}
	ring.lastNetWh, ring.lastSec = netWh, sec
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
