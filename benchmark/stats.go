package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of an ascending slice by nearest rank;
// 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median sorts a copy of xs and returns its middle value (the mean of
// the two middle values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// durQuantilesUs returns the given quantiles of ds, nanoseconds, in µs.
func durQuantilesUs(ds []int64, qs ...float64) []float64 {
	us := make([]float64, len(ds))
	for i, d := range ds {
		us[i] = float64(d) / 1e3
	}
	sort.Float64s(us)
	out := make([]float64, len(qs))
	for k, q := range qs {
		out[k] = quantile(us, q)
	}
	return out
}

// cpuTime is this process's user and system CPU time so far.
func cpuTime() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// peakRSSMiB is the process's resident-set high-water mark; Linux
// reports ru_maxrss in KiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// spinSink keeps the spin's work from being optimised away.
var spinSink byte

// memSpin is a fixed amount of allocate-and-copy work that involves
// none of the program under test: 24 000 block copies, a quarter of them
// into freshly allocated blocks. Timed before every traced segment, it
// tells a slow machine from a slow program: neighbours on a shared box
// take memory bandwidth, which this feels and a pure ALU loop does not.
func memSpin() time.Duration {
	const copies, size = 24000, 4096
	src := make([]byte, size)
	ring := make([][]byte, 512)
	for i := range ring {
		ring[i] = make([]byte, size)
	}
	t0 := time.Now()
	for i := 0; i < copies; i++ {
		slot := i % len(ring)
		if i%4 == 0 {
			ring[slot] = make([]byte, size)
		}
		copy(ring[slot], src)
		src[i%size]++
	}
	spinSink += ring[7][9]
	return time.Since(t0)
}
