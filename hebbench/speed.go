package main

import "time"

// On shared VMs other tenants use the same physical cores: a fixed loop
// of arithmetic takes anywhere from 1x to 2x its uncontended time from
// one second to the next, and whole 20-second runs land on slow or fast
// phases. Raw host times then move 20-30% between
// identical runs. So every timed operation is bracketed by a short
// calibration kernel on the same goroutine, and the end-to-end times are
// reported rescaled to the host speed at which that kernel takes
// refKernelNs. The kernel is the benchmark's own code, so no change to
// the simulator moves it.

// refKernelNs is the kernel time that defines the reference host speed:
// about the kernel's uncontended time on a 2-vCPU x86-64 VM.
const refKernelNs = 250e3

// kernelLen is the arithmetic half's working set in float64s (32 KB,
// L1-resident).
const kernelLen = 1 << 12

// slowdown runs the calibration kernel and returns its time over
// refKernelNs: 1 at the reference speed, 2 when the host runs at half
// speed. The kernel has two halves, as the simulator has: multiply-add
// over a small array (the device models) and hash-map churn (the PAT
// and the capture path). Either half alone tracked one workload's cell
// times and not another's; together they track all three.
func slowdown() float64 {
	var buf [kernelLen]float64
	t0 := time.Now()
	s := 0.0
	for r := 0; r < 20; r++ {
		for i := range buf {
			buf[i] = buf[i]*0.999 + float64(i&7)*1e-3
			s += buf[i]
		}
	}
	m := make(map[uint64]uint64)
	x := uint64(88172645463325252)
	for i := 0; i < 3000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := x % 4096
		if _, ok := m[k]; ok {
			delete(m, k)
		} else {
			m[k] = x
		}
	}
	ns := time.Since(t0).Nanoseconds()
	if s < 0 || len(m) < 0 { // never true; keeps the results live
		ns++
	}
	return float64(ns) / refKernelNs
}
