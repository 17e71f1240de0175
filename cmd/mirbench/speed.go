package main

import (
	"sort"
	"syscall"
	"time"
)

// Timed end-to-end metrics are CPU time at a reference machine speed.
//
// The benchmark runs on a few CPUs of a shared host. Wall time there
// measures the neighbours as much as the program: with two busy
// processes beside it, small-mirror's wall-clock pass time rose by 84%
// while its CPU time rose by 14%. So every run uses one P (GOMAXPROCS
// 1) and one trial worker, and times what the process spends on a CPU:
// user plus system time of all its threads, which counts the fleet's
// in-process workers and the loopback stack and leaves out the time the
// process sat runnable while a neighbour ran.
//
// A CPU second is not a fixed amount of work either: the host's other
// tenants slow every cycle, by up to 80%, and whole minutes run slow.
// Between calls (outside every timed region, at most every
// calibrationEvery) the client runs a fixed CPU kernel that shares no
// code with the transpiler; a pass's slowdown is the median kernel CPU
// time during the pass over calibrationRef, and the pass's times are
// divided by it. Wall-clock times are kept alongside, as measured.

// calibrationRef is the kernel's CPU time at reference speed: about the
// lower decile of its per-pass medians on the host the benchmark was
// defined on (a 2-vCPU KVM guest on an Intel Xeon, Go 1.24).
const calibrationRef = 350 * time.Microsecond

// calibrationEvery is the least call time between two calibrations.
const calibrationEvery = 50 * time.Millisecond

// calibrationData is the kernel's input, 3000 pseudo-random floats, and
// calibrationBuf the copy it sorts.
var calibrationData, calibrationBuf = func() ([]float64, []float64) {
	d := make([]float64, 3000)
	x := uint64(7)
	for i := range d {
		x = x*6364136223846793005 + 1442695040888963407
		d[i] = float64(x >> 11)
	}
	return d, make([]float64, len(d))
}()

// cpuTime is the CPU time the process has used, user and system, over
// all its threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only on a bad argument
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// calibrate runs the kernel once and returns its CPU time. The kernel
// sorts calibrationData with the standard library: data-dependent
// branches, compares and swaps over a few tens of KiB, the kind of code
// the transpiler runs. Of the kernels tried (this one, a chain of
// dependent table loads, independent arithmetic chains, map lookups and
// random reads over 0.5-32 MiB), its time followed the transpiler's CPU
// time most closely from pass to pass.
func calibrate() time.Duration {
	copy(calibrationBuf, calibrationData)
	start := cpuTime()
	sort.Float64s(calibrationBuf)
	return cpuTime() - start
}

// slowdown is the median of the kernel times over calibrationRef.
func slowdown(cals []time.Duration) float64 {
	s := append([]time.Duration(nil), cals...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[len(s)/2]) / float64(calibrationRef)
}

// calibrations runs the kernel in a row, at least n times and for at
// least span.
func calibrations(n int, span time.Duration) []time.Duration {
	var cals []time.Duration
	for total := time.Duration(0); len(cals) < n || total < span; total += cals[len(cals)-1] {
		cals = append(cals, calibrate())
	}
	return cals
}
