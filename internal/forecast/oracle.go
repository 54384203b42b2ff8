package forecast

// Oracle is a perfect predictor primed with the values it will be asked
// to forecast: Predict returns the next primed value, Observe advances
// past it. It exists for ablation studies — the upper bound on what
// better prediction could buy the controller. Once the primed series is
// exhausted it degrades to last-value prediction.
type Oracle struct {
	future []float64
	idx    int
	last   float64
	seen   bool
}

// NewOracle builds an oracle that will predict the given series in order.
func NewOracle(future []float64) *Oracle {
	return &Oracle{future: append([]float64(nil), future...)}
}

// Name implements Predictor.
func (o *Oracle) Name() string { return "oracle" }

// Predict implements Predictor: the true next value when primed, the last
// observation once exhausted.
func (o *Oracle) Predict() float64 {
	if o.idx < len(o.future) {
		return o.future[o.idx]
	}
	if o.seen {
		return o.last
	}
	return 0
}

// Observe implements Predictor: it advances the oracle only when the
// observation matches the primed truth's position, tolerating the runtime
// feeding it the very values it predicted.
func (o *Oracle) Observe(v float64) {
	o.last, o.seen = v, true
	if o.idx < len(o.future) {
		o.idx++
	}
}

// Reset implements Predictor: the oracle rewinds to the start of its
// primed series.
func (o *Oracle) Reset() {
	o.idx = 0
	o.last, o.seen = 0, false
}
