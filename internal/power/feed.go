package power

import (
	"fmt"
	"time"

	"heb/internal/units"
)

// Feed is a power source with a time-varying availability: the utility
// grid under a provisioned budget, or a renewable generator. At each
// simulation step the engine asks Available.
type Feed interface {
	// Available returns the power the feed can supply at time t.
	Available(t time.Duration) units.Power
	// Name identifies the feed in reports.
	Name() string
}

// UtilityFeed is grid power capped at the provisioned budget — the
// under-provisioned infrastructure of Section 2.1. Budget is what the
// breakers/contract allow, not what the load wants. It holds only the
// budget: the engine meters what it draws (Result.UtilityEnergy and
// UtilityPeak), so one feed may serve any number of runs.
type UtilityFeed struct {
	budget units.Power
}

// NewUtilityFeed builds a grid feed with the given provisioned budget.
func NewUtilityFeed(budget units.Power) (*UtilityFeed, error) {
	if budget <= 0 {
		return nil, fmt.Errorf("power: utility budget %v must be positive", budget)
	}
	return &UtilityFeed{budget: budget}, nil
}

// MustNewUtilityFeed is NewUtilityFeed for known-good budgets.
func MustNewUtilityFeed(budget units.Power) *UtilityFeed {
	f, err := NewUtilityFeed(budget)
	if err != nil {
		panic(err)
	}
	return f
}

// Name implements Feed.
func (f *UtilityFeed) Name() string { return "utility" }

// Budget returns the provisioned power budget.
func (f *UtilityFeed) Budget() units.Power { return f.budget }

// Available implements Feed: the grid always offers exactly the budget.
func (f *UtilityFeed) Available(time.Duration) units.Power { return f.budget }

// TraceFeed replays a pre-computed availability series (used for solar
// generation and recorded grid traces). Between samples it holds the
// previous value (zero-order hold).
type TraceFeed struct {
	name    string
	step    time.Duration
	samples []units.Power
}

// NewTraceFeed builds a feed from samples spaced step apart.
func NewTraceFeed(name string, step time.Duration, samples []units.Power) (*TraceFeed, error) {
	if step <= 0 {
		return nil, fmt.Errorf("power: trace feed step %v must be positive", step)
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("power: trace feed %q needs samples", name)
	}
	for i, s := range samples {
		if s < 0 {
			return nil, fmt.Errorf("power: trace feed %q sample %d is negative (%v)", name, i, s)
		}
	}
	return &TraceFeed{name: name, step: step, samples: samples}, nil
}

// MustNewTraceFeed is NewTraceFeed for known-good traces.
func MustNewTraceFeed(name string, step time.Duration, samples []units.Power) *TraceFeed {
	f, err := NewTraceFeed(name, step, samples)
	if err != nil {
		panic(err)
	}
	return f
}

// Name implements Feed.
func (f *TraceFeed) Name() string { return f.name }

// Len returns the number of samples.
func (f *TraceFeed) Len() int { return len(f.samples) }

// Duration returns the trace's covered time span.
func (f *TraceFeed) Duration() time.Duration {
	return time.Duration(len(f.samples)) * f.step
}

// Available implements Feed: zero-order hold over the samples; past the
// end the trace wraps around, so long simulations see repeating days.
func (f *TraceFeed) Available(t time.Duration) units.Power {
	if t < 0 {
		return f.samples[0]
	}
	i := int(t/f.step) % len(f.samples)
	return f.samples[i]
}
