// Fault-tolerance scenario: the paper sells HEB as improving datacenter
// resiliency, so this example degrades the platform on purpose — noisy
// buffer sensors, then batteries aged to 80% of their rated life — and
// shows how the HEB-D run responds compared to the healthy baseline.
//
//	go run ./examples/faulttolerance
package main

import (
	"fmt"
	"log"
	"time"

	"heb"
)

const duration = 8 * time.Hour

func main() {
	wl, err := heb.WorkloadNamed("PR")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("HEB-D on %v of PageRank, three hardware conditions:\n\n", duration)
	fmt.Printf("%-26s %8s %13s %12s %12s\n",
		"condition", "EE", "downtime(s)", "SC (Wh)", "BA (Wh)")

	// Healthy baseline.
	healthy := heb.DefaultPrototype()
	report("healthy", run(healthy, wl))

	// 15% multiplicative error on every buffer-availability reading the
	// controller gets from its sensors.
	noisy := heb.DefaultPrototype()
	noisy.SensorNoise = 0.15
	report("noisy sensors (±15%)", run(noisy, wl))

	// Batteries at 80% of their rated life with capacity fade and
	// resistance growth enabled.
	aged := heb.DefaultPrototype()
	aged.Battery.FadeAtEOL = 0.30
	aged.Battery.ResistanceGrowthAtEOL = 1.5
	aged.BatteryPreAge = 0.8
	report("aged batteries (80% life)", run(aged, wl))

	fmt.Println("\nDegradation is graceful: the controller keeps shaving peaks on")
	fmt.Println("bad sensor data, and the relay fabric's takeover routes around")
	fmt.Println("tired batteries by leaning on the super-capacitors.")
}

func run(p heb.Prototype, wl heb.Workload) [4]float64 {
	res, err := p.Run(heb.HEBD, wl.WithDuration(duration), heb.RunOptions{Duration: duration})
	if err != nil {
		log.Fatal(err)
	}
	return [4]float64{
		res.EnergyEfficiency,
		res.DowntimeServerSeconds,
		res.ServedFromSupercap.Wh(),
		res.ServedFromBattery.Wh(),
	}
}

func report(name string, m [4]float64) {
	fmt.Printf("%-26s %8.3f %13.0f %12.1f %12.1f\n", name, m[0], m[1], m[2], m[3])
}
