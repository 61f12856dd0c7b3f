package main

import (
	"testing"
	"time"
)

func TestCalibrationScale(t *testing.T) {
	// A host on which the kernel's median takes twice calibRef runs at
	// half speed: its CPU-seconds count half a reference CPU-second.
	ref := calibRef.Seconds()
	c := &calibrator{samples: []float64{2 * ref, 1.9 * ref, 9 * ref, 2.1 * ref, 2 * ref}}
	if got := c.scale(); !near(got, 0.5) {
		t.Errorf("scale() = %v, want 0.5", got)
	}
}

func TestCalibrateForTakesItsShare(t *testing.T) {
	c := newCalibrator()
	if spent := c.calibrateFor(0); spent <= 0 || len(c.samples) != 1 {
		t.Fatalf("calibrateFor(0) took %v over %d samples, want one repetition", spent, len(c.samples))
	}
	d := 40 * calibRef
	spent := c.calibrateFor(d)
	if spent < time.Duration(float64(d)*calibShare) {
		t.Errorf("calibrateFor(%v) took %v, less than its %.0f%% share", d, spent, 100*calibShare)
	}
	for _, s := range c.samples {
		if s <= 0 {
			t.Fatalf("a repetition took %v s of thread CPU time", s)
		}
	}
}
