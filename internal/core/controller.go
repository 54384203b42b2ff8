package core

import (
	"fmt"
	"math"
	"math/rand"

	"heb/internal/forecast"
	"heb/internal/obs"
	"heb/internal/pat"
	"heb/internal/units"
)

// Config tunes the hControl controller.
type Config struct {
	// SmallPeakWatts is the ΔPM threshold separating small peaks
	// (handled SC-first) from large peaks (handled by R_λ splitting).
	// The paper classifies on the predicted average peak height.
	SmallPeakWatts units.Power
	// Budget is the provisioned utility power the controller defends.
	Budget units.Power
	// NumServers is the cluster size.
	NumServers int
	// PeakPredictor and ValleyPredictor forecast the two per-slot
	// series. Nil defaults to Holt-Winters with default tuning.
	PeakPredictor, ValleyPredictor forecast.Predictor

	// SensorNoise injects multiplicative measurement error on the
	// buffer-availability readings the controller receives: each slot's
	// SC/BA readings are scaled by 1 ± U(0, SensorNoise). Zero means
	// perfect sensors; fault-injection experiments raise it.
	SensorNoise float64
	// NoiseSeed makes the injected noise reproducible.
	NoiseSeed int64

	// Trace, when set, receives one DecisionRecord per control slot —
	// emitted at FinishSlot (Completed=true) or from FlushTrace for a
	// trailing slot the run ended inside (Completed=false). The record's
	// Seconds field is zero; callers that know the slot length stamp it
	// ((Slot-1) × slot seconds). Nil disables tracing at zero cost.
	Trace func(obs.DecisionRecord)
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	switch {
	case c.SmallPeakWatts < 0:
		return fmt.Errorf("core: small-peak threshold %v must be non-negative", c.SmallPeakWatts)
	case c.Budget <= 0:
		return fmt.Errorf("core: budget %v must be positive", c.Budget)
	case c.NumServers <= 0:
		return fmt.Errorf("core: server count %d must be positive", c.NumServers)
	case c.SensorNoise < 0 || c.SensorNoise >= 1:
		return fmt.Errorf("core: sensor noise %g outside [0,1)", c.SensorNoise)
	}
	return nil
}

// Controller is hControl: it owns the demand predictors and drives a
// Scheme through the slot lifecycle. The simulation engine calls
// PlanSlot at each slot start and FinishSlot at each slot end.
type Controller struct {
	cfg    Config
	scheme Scheme

	peakPred, valleyPred forecast.Predictor
	peakErr, valleyErr   forecast.Errors

	lastView  SlotView
	haveSlot  bool
	slotCount int

	// patTable is the scheme's PAT when it has one; PlanSlot snapshots
	// its stats around the Plan call to attribute lookups per slot.
	patTable                *pat.Table
	lastLookups, lastMisses int
	pending                 obs.DecisionRecord
	havePending             bool

	noise *rand.Rand
	// noiseDraws counts Float64 draws taken from noise, so a checkpoint
	// records the generator's stream position.
	noiseDraws int64
}

// NewController wires a controller around the given scheme. It is Reset
// on a zero Controller.
func NewController(cfg Config, scheme Scheme) (*Controller, error) {
	c := new(Controller)
	if err := c.Reset(cfg, scheme); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset binds the controller to a configuration and scheme for a fresh
// run. Every field is rebuilt, so a reset controller's state equals a new
// one's: predictors and accuracy trackers start without history, the slot
// lifecycle restarts at slot zero and the sensor-noise stream starts at
// cfg.NoiseSeed. Only two allocations carry over: default predictors the
// controller built itself are reset in place when cfg again injects none,
// and the noise generator is reseeded.
func (c *Controller) Reset(cfg Config, scheme Scheme) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if scheme == nil {
		return fmt.Errorf("core: controller needs a scheme")
	}
	peak := ownedPredictor(cfg.PeakPredictor, c.cfg.PeakPredictor, c.peakPred)
	valley := ownedPredictor(cfg.ValleyPredictor, c.cfg.ValleyPredictor, c.valleyPred)
	noise := c.noise
	if cfg.SensorNoise <= 0 {
		noise = nil
	} else if noise != nil {
		noise.Seed(cfg.NoiseSeed)
	} else {
		noise = rand.New(rand.NewSource(cfg.NoiseSeed))
	}
	table, _ := Table(scheme)
	*c = Controller{
		cfg:        cfg,
		scheme:     scheme,
		peakPred:   peak,
		valleyPred: valley,
		patTable:   table,
		noise:      noise,
	}
	return nil
}

// ownedPredictor picks a run's predictor: the injected one; else prev,
// the default the controller built for a previous run whose config (old)
// injected none, reset in place; else a new default.
func ownedPredictor(injected, old, prev forecast.Predictor) forecast.Predictor {
	switch {
	case injected != nil:
		return injected
	case old == nil && prev != nil:
		prev.Reset()
		return prev
	}
	return forecast.MustNewHoltWinters(forecast.DefaultHoltWintersConfig())
}

// MustNewController is NewController for known-good configs.
func MustNewController(cfg Config, scheme Scheme) *Controller {
	c, err := NewController(cfg, scheme)
	if err != nil {
		panic(err)
	}
	return c
}

// Scheme returns the wrapped scheme.
func (c *Controller) Scheme() Scheme { return c.scheme }

// SlotCount returns how many slots have been planned.
func (c *Controller) SlotCount() int { return c.slotCount }

// PlanSlot builds the slot view from sensor feedback, runs the forecast
// and classification, and returns the scheme's decision. scAvail/baAvail
// are the pools' current usable energies; scCap/baCap their capacities.
func (c *Controller) PlanSlot(scAvail, scCap, baAvail, baCap units.Energy) (SlotView, Decision) {
	if c.noise != nil {
		scAvail = c.perturb(scAvail, scCap)
		baAvail = c.perturb(baAvail, baCap)
	}
	v := SlotView{
		SCAvail:    scAvail,
		BAAvail:    baAvail,
		SCFrac:     frac(scAvail, scCap),
		BAFrac:     frac(baAvail, baCap),
		Budget:     c.cfg.Budget,
		NumServers: c.cfg.NumServers,
	}
	v.PredictedPeak = units.Power(math.Max(0, c.peakPred.Predict()))
	v.PredictedValley = units.Power(math.Max(0, c.valleyPred.Predict()))
	pm := v.PredictedPeak - v.PredictedValley
	if pm < 0 {
		pm = 0
	}
	v.PredictedPM = pm
	// Classification: a slot is a small peak when the predicted
	// mismatch height above the budget is below the threshold. The
	// mismatch that storage must serve is peak minus budget (demand
	// below the budget comes from utility).
	over := v.PredictedPeak - v.Budget
	if over < 0 {
		over = 0
	}
	v.PredictedOver = over
	v.SmallPeak = over <= c.cfg.SmallPeakWatts
	c.lastView = v
	c.haveSlot = true
	c.slotCount++

	lookupsBefore, missesBefore := 0, 0
	if c.patTable != nil {
		lookupsBefore, missesBefore = c.patTable.Stats()
	}
	d := c.scheme.Plan(v)
	c.lastLookups, c.lastMisses = 0, 0
	if c.patTable != nil {
		lookupsAfter, missesAfter := c.patTable.Stats()
		c.lastLookups = lookupsAfter - lookupsBefore
		c.lastMisses = missesAfter - missesBefore
	}
	if c.cfg.Trace != nil {
		c.pending = obs.DecisionRecord{
			Slot:             c.slotCount,
			Scheme:           c.scheme.Name(),
			SCFrac:           v.SCFrac,
			BAFrac:           v.BAFrac,
			SCAvailWh:        v.SCAvail.Wh(),
			BAAvailWh:        v.BAAvail.Wh(),
			BudgetW:          float64(v.Budget),
			PredictedPeakW:   float64(v.PredictedPeak),
			PredictedValleyW: float64(v.PredictedValley),
			PredictedPMW:     float64(v.PredictedPM),
			PredictedOverW:   float64(v.PredictedOver),
			SmallPeak:        v.SmallPeak,
			Mode:             d.Mode.String(),
			Ratio:            d.Ratio,
			PATLookups:       c.lastLookups,
			PATMisses:        c.lastMisses,
		}
		c.havePending = true
	}
	return v, d
}

// LastPlanPAT returns the PAT lookup and miss counts attributable to the
// most recent PlanSlot (zero for table-free schemes).
func (c *Controller) LastPlanPAT() (lookups, misses int) {
	return c.lastLookups, c.lastMisses
}

// FinishSlot feeds the observed slot result back: predictor updates,
// accuracy accounting and the scheme's own learning.
func (c *Controller) FinishSlot(r SlotResult) {
	if !c.haveSlot {
		return
	}
	c.peakErr.Record(float64(c.lastView.PredictedPeak), float64(r.ActualPeak))
	c.valleyErr.Record(float64(c.lastView.PredictedValley), float64(r.ActualValley))
	c.peakPred.Observe(float64(r.ActualPeak))
	c.valleyPred.Observe(float64(r.ActualValley))
	c.scheme.Learn(c.lastView, r)
	c.haveSlot = false
	if c.cfg.Trace != nil && c.havePending {
		c.pending.Completed = true
		c.pending.ActualPeakW = float64(r.ActualPeak)
		c.pending.ActualValleyW = float64(r.ActualValley)
		c.pending.ActualPMW = float64(r.ActualPM)
		c.pending.ActualOverW = float64(r.ActualOver)
		c.pending.SCFracEnd = r.SCFracEnd
		c.pending.BAFracEnd = r.BAFracEnd
		c.pending.RatioUsed = r.RatioUsed
		c.havePending = false
		c.cfg.Trace(c.pending)
	}
}

// FlushTrace emits the trace record of a planned slot that never reached
// FinishSlot (the run ended inside it), with Completed=false. Callers run
// it once after the engine finishes so SlotCount always equals the number
// of emitted records; it is a no-op when tracing is off or no record is
// pending.
func (c *Controller) FlushTrace() {
	if c.cfg.Trace == nil || !c.havePending {
		return
	}
	c.havePending = false
	c.cfg.Trace(c.pending)
}

// PredictionErrors returns the peak and valley accuracy trackers.
func (c *Controller) PredictionErrors() (peak, valley forecast.Errors) {
	return c.peakErr, c.valleyErr
}

// perturb applies the injected multiplicative sensor error, clamped to
// the physically possible [0, capacity] range.
func (c *Controller) perturb(v, capacity units.Energy) units.Energy {
	c.noiseDraws++
	f := 1 + (c.noise.Float64()*2-1)*c.cfg.SensorNoise
	out := units.Energy(float64(v) * f)
	if out < 0 {
		out = 0
	}
	if capacity > 0 && out > capacity {
		out = capacity
	}
	return out
}

func frac(avail, capacity units.Energy) float64 {
	if capacity <= 0 {
		return 0
	}
	return units.Clamp(float64(avail)/float64(capacity), 0, 1)
}

// SeedPAT fills a table with the horizon-ratio heuristic evaluated at
// every bin center, emulating the paper's pilot-profiling bootstrap. The
// noise parameter perturbs each seeded ratio deterministically (by a hash
// of the bin) to model pilot-measurement inaccuracy: HEB-S lives with the
// error, HEB-D corrects it online. scCap anchors the energy scale; maxPM
// bounds the mismatch range to profile. The unused baCap parameter keeps
// the profiling signature symmetric for future battery-aware seeds.
//
// The table must be empty (fresh, or after Reset). Profiling visits bins
// in ascending key order and every seeded entry is unhit, so inserting all
// of them would make each Add past MaxEntries evict the oldest entry; the
// survivors are always the highest-keyed MaxEntries bins. SeedPAT adds
// just those, skipping the rest, into a dense grid reserved for the
// profiled PM range. The return value is the number of bins profiled,
// kept or not.
func SeedPAT(t *pat.Table, scCap, baCap units.Energy, maxPM units.Power, derate, noise float64) int {
	_ = derate
	_ = baCap
	cfg := t.Config()
	pmBins := max(int(float64(maxPM)/cfg.PMBinWatts)+1, 0)
	t.Reserve(pmBins)
	perSC := cfg.LevelBins * pmBins
	total := cfg.LevelBins * perSC
	for i := max(total-cfg.MaxEntries, 0); i < total; i++ {
		si, bi, pi := i/perSC, i%perSC/pmBins, i%pmBins
		scFrac := (float64(si) + 0.5) / float64(cfg.LevelBins)
		baFrac := (float64(bi) + 0.5) / float64(cfg.LevelBins)
		pm := units.Power((float64(pi) + 0.5) * cfg.PMBinWatts)
		r := HorizonRatio(
			units.Energy(scFrac*float64(scCap)),
			pm,
			DefaultPlanningHorizon,
		)
		if noise > 0 {
			r = units.Clamp(r+noise*hashNoise(si, bi, pi), 0, 1)
		}
		t.Add(scFrac, baFrac, pm, r)
	}
	return total
}

// hashNoise maps a bin to a deterministic pseudo-random value in [-1, 1].
func hashNoise(a, b, c int) float64 {
	h := uint64(a)*0x9E3779B97F4A7C15 ^ uint64(b)*0xC2B2AE3D27D4EB4F ^ uint64(c)*0x165667B19E3779F9
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return float64(h%20001)/10000 - 1
}
