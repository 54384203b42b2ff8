package heb

import (
	"fmt"
	"io"
	"time"

	"heb/internal/power"
	"heb/internal/sim"
	"heb/internal/trace"
	"heb/internal/units"
	"heb/internal/workload"
)

// This file implements the paper's Section 4.2 deployment-architecture
// comparison (Figure 8): the cluster-level deployment shares one buffer
// group across all racks but pays a DC/AC conversion on the storage path;
// the rack-level deployment delivers DC directly but cannot share energy
// between racks; the conventional centralized UPS double-converts
// everything. Per-rack load imbalance is what makes sharing valuable —
// each rack gets an independently-seeded burst pattern, so one rack's
// peaks land while another's buffers idle.

// DeploymentResult aggregates one architecture's run.
type DeploymentResult struct {
	// Topology is the architecture evaluated.
	Topology power.Topology
	// Racks is how many independent buffer groups served the cluster
	// (1 for the shared deployments).
	Racks int
	// EnergyEfficiency, DowntimeServerSeconds and ConversionLoss are
	// summed/combined over the racks.
	EnergyEfficiency      float64
	DowntimeServerSeconds float64
	ConversionLoss        units.Energy
	ServedFromBuffers     units.Energy
	UnservedEnergy        units.Energy
}

// CompareDeployments runs the same imbalanced multi-rack workload under
// the three architectures with equal total servers, budget and storage,
// using the HEB-D scheme. racks must divide the prototype's server count.
func CompareDeployments(p Prototype, spec workload.Spec, racks int, duration time.Duration) ([]DeploymentResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if racks <= 0 || p.NumServers%racks != 0 {
		return nil, fmt.Errorf("heb: racks %d must divide %d servers", racks, p.NumServers)
	}
	if duration <= 0 {
		return nil, fmt.Errorf("heb: duration %v must be positive", duration)
	}
	perRack := p.NumServers / racks

	// Independently-seeded per-rack traces: same statistics, uncorrelated
	// burst phases.
	rackTraces := make([]*trace.Trace, racks)
	for i := range rackTraces {
		tr, err := spec.Generate(p.Seed+int64(i)*977, perRack, duration, 10*time.Second)
		if err != nil {
			return nil, err
		}
		rackTraces[i] = tr
	}
	merged, err := trace.Merge(spec.Abbrev+"-cluster", rackTraces...)
	if err != nil {
		return nil, err
	}

	// Shared-buffer deployments run one engine over all servers; the
	// rack-level one runs independent engines, each with its share of
	// budget and storage, so energy cannot move between racks.
	shared := []power.Topology{power.TopologyClusterLevel, power.TopologyCentralizedUPS}
	opts := RunOptions{Duration: duration}
	var runs []sweepRun
	for _, topo := range shared {
		pp := p
		pp.Topology = topo
		runs = append(runs, sweepRun{pp, HEBD, WorkloadFromTrace(merged), opts})
	}
	for _, tr := range rackTraces {
		pp := p
		pp.Topology = power.TopologyRackLevel
		pp.NumServers = perRack
		pp.Budget = units.Power(float64(p.Budget) / float64(racks))
		pp.StorageWh = p.StorageWh / float64(racks)
		runs = append(runs, sweepRun{pp, HEBD, WorkloadFromTrace(tr), opts})
	}
	results, err := sweep(runs, 0)
	if err != nil {
		return nil, err
	}

	// Each architecture's row sums its engines' results and averages
	// their EE.
	row := func(topo power.Topology, group []sim.Result) DeploymentResult {
		r := DeploymentResult{Topology: topo, Racks: len(group)}
		for _, res := range group {
			r.EnergyEfficiency += res.EnergyEfficiency
			r.DowntimeServerSeconds += res.DowntimeServerSeconds
			r.ConversionLoss += res.ConversionLoss
			r.ServedFromBuffers += res.ServedTotal()
			r.UnservedEnergy += res.UnservedEnergy
		}
		r.EnergyEfficiency /= float64(len(group))
		return r
	}
	return []DeploymentResult{
		row(shared[0], results[:1]),
		row(shared[1], results[1:2]),
		row(power.TopologyRackLevel, results[len(shared):]),
	}, nil
}

// WriteDeployments renders the comparison.
func WriteDeployments(w io.Writer, results []DeploymentResult) error {
	if len(results) == 0 {
		return fmt.Errorf("heb: nothing to report")
	}
	_, err := fmt.Fprintf(w, "%-16s %6s %8s %13s %14s %12s\n",
		"topology", "groups", "EE", "downtime(s)", "convLoss(Wh)", "served(Wh)")
	if err != nil {
		return err
	}
	for _, r := range results {
		if _, err := fmt.Fprintf(w, "%-16s %6d %8.3f %13.0f %14.1f %12.1f\n",
			r.Topology, r.Racks, r.EnergyEfficiency, r.DowntimeServerSeconds,
			r.ConversionLoss.Wh(), r.ServedFromBuffers.Wh()); err != nil {
			return err
		}
	}
	return nil
}
