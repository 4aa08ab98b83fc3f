package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted. NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// allocsOf runs f once and returns the heap allocations and bytes it made.
// Other goroutines' allocations in the same interval count too, so callers
// run it while the system under test is idle and divide by a large n.
func allocsOf(f func()) (allocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

// nsPerOp times n calls of f and returns nanoseconds per call.
func nsPerOp(n int, f func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// cpuTime returns the CPU time, user plus system, that the whole process
// has used. Unlike wall time it does not grow while a shared host runs
// someone else, so costs measured with it hold still when the host is busy.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
