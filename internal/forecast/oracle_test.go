package forecast

import "testing"

func TestOraclePredictsPrimedSeries(t *testing.T) {
	o := NewOracle([]float64{10, 20, 30})
	if o.Name() != "oracle" {
		t.Errorf("name %q", o.Name())
	}
	want := []float64{10, 20, 30}
	for i, w := range want {
		if got := o.Predict(); got != w {
			t.Fatalf("step %d: Predict = %g, want %g", i, got, w)
		}
		o.Observe(w)
	}
	// Exhausted: degrades to last value.
	if got := o.Predict(); got != 30 {
		t.Errorf("exhausted Predict = %g, want last value 30", got)
	}
	o.Observe(77)
	if got := o.Predict(); got != 77 {
		t.Errorf("exhausted Predict = %g, want 77", got)
	}
}

func TestOracleEmpty(t *testing.T) {
	o := NewOracle(nil)
	if got := o.Predict(); got != 0 {
		t.Errorf("empty oracle predicts %g", got)
	}
	o.Observe(5)
	if got := o.Predict(); got != 5 {
		t.Errorf("empty oracle after observe predicts %g", got)
	}
}

func TestOracleReset(t *testing.T) {
	o := NewOracle([]float64{1, 2})
	o.Observe(1)
	o.Observe(2)
	o.Reset()
	if got := o.Predict(); got != 1 {
		t.Errorf("after reset predicts %g, want 1", got)
	}
}

func TestOracleDoesNotAliasInput(t *testing.T) {
	series := []float64{1, 2, 3}
	o := NewOracle(series)
	series[0] = 99
	if got := o.Predict(); got != 1 {
		t.Errorf("oracle aliased caller's slice: %g", got)
	}
}

func TestOraclePerfectErrorOnItsSeries(t *testing.T) {
	series := []float64{5, 7, 9, 11}
	o := NewOracle(series)
	var e Errors
	for _, v := range series {
		e.Record(o.Predict(), v)
		o.Observe(v)
	}
	if e.MAE() != 0 {
		t.Errorf("oracle MAE %g, want 0", e.MAE())
	}
}
