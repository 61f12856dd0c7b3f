package main

import (
	"math/big"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed drifts by a third and more over minutes as its other
// tenants come and go, and CPU time drifts with it.  The gated
// throughput and set-up metrics are therefore reported in reference
// CPU-seconds: CPU time scaled by calibRef over the time a fixed
// calibration kernel, run between the timed operations, took on the
// same host at the same time.  The kernel is the benchmark's own code,
// so a change to polyprof can move it only through the garbage
// collector the two share.  RATIONALE.md ("Steadiness") has the
// measurements.

// calibRef is the calibration kernel's CPU time that defines a
// reference CPU-second: a CPU-second of a host on which one kernel
// repetition takes calibRef.
const calibRef = 5 * time.Millisecond

// calibShare is the least share of a pipeline stream's time spent
// calibrating, so that samples are spread over the run like the
// operations they scale.
const calibShare = 0.05

// calibrator runs the calibration kernel and keeps its samples.
type calibrator struct {
	samples []float64
}

func newCalibrator() *calibrator { return &calibrator{} }

// calibSink keeps the kernel's result alive.
var calibSink uint64

// rep runs the kernel once on a locked OS thread and records the
// thread's CPU time for it.
func (c *calibrator) rep() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	calibSink += kernel()
	d := threadCPU() - t0
	c.samples = append(c.samples, d.Seconds())
	return d
}

// kernel is a fixed mix of what the profiler's hot paths do: a
// byte-code dispatch, updates and lookups in a freshly allocated hash
// map of a few hundred KiB (as shadow memory and the folders' tables
// are), and rational arithmetic (as the fitter's).  Kernels without the
// allocation and the map tracked the host's slow and fast phases far
// worse than this one (RATIONALE.md, "Steadiness").
func kernel() uint64 {
	m := make(map[uint64]uint64, 1<<14)
	code := [8]uint8{0, 1, 2, 3, 1, 0, 3, 2}
	x, acc := uint64(88172645463325252), uint64(0)
	r, step := big.NewRat(1, 3), big.NewRat(1, 7)
	for i := uint64(0); i < 40000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		switch code[i&7] {
		case 0:
			m[x&0x3FFF] += i
		case 1:
			acc += m[(x>>20)&0x3FFF]
		case 2:
			acc ^= x * 31
		case 3:
			if i&63 == 3 {
				r.Add(r, step)
				r.Mul(r, step)
			}
		}
	}
	return acc + uint64(r.Num().Bits()[0])
}

// calibrateFor runs kernel repetitions until they have taken at least
// calibShare of d (at least one), d being the time just spent on
// operations, and returns the thread CPU time they took.
func (c *calibrator) calibrateFor(d time.Duration) time.Duration {
	want := time.Duration(float64(d) * calibShare)
	var spent time.Duration
	for spent == 0 || spent < want {
		spent += c.rep()
	}
	return spent
}

// scale is the factor turning CPU seconds measured alongside the
// calibrator's samples into reference CPU-seconds: below 1 while the
// host runs slow.
func (c *calibrator) scale() float64 {
	return calibRef.Seconds() / median(c.samples)
}

// threadCPU is the CPU time the calling OS thread has used.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
