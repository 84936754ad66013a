package serve

import (
	"testing"
	"time"
)

// tick builds scripted instants: base + n microseconds.
func tick(base time.Time, us int64) time.Time {
	return base.Add(time.Duration(us) * time.Microsecond)
}

// Before any rate estimate exists the adaptive controller must not hold a
// lone request hostage: target 1, hold 0 for any non-empty epoch.
func TestControllerNoEstimateDispatchesImmediately(t *testing.T) {
	c := newBatchController(256, 500*time.Microsecond)
	if got := c.target(); got != 1 {
		t.Errorf("cold target = %d, want 1", got)
	}
	base := time.Unix(1000, 0)
	c.observeArrival(base)
	if h := c.hold(tick(base, 1), 1); h > 0 {
		t.Errorf("cold hold = %v, want <= 0", h)
	}
}

// Under steady load the target converges to applyCost/gap: arrivals every
// 10µs against a 1000µs apply justify filling ~100 ops, capped by MaxBatch.
func TestControllerTargetTracksLoad(t *testing.T) {
	c := newBatchController(256, 500*time.Microsecond)
	base := time.Unix(1000, 0)
	for i := int64(0); i < 200; i++ {
		c.observeArrival(tick(base, i*10))
	}
	for i := 0; i < 20; i++ {
		c.observeApply(1000 * time.Microsecond)
	}
	if got := c.target(); got < 80 || got > 120 {
		t.Errorf("target = %d, want ~100", got)
	}

	// Heavier load (1µs gaps) should push the target to the MaxBatch cap.
	for i := int64(0); i < 400; i++ {
		c.observeArrival(tick(base, 2000+i))
	}
	if got := c.target(); got != 256 {
		t.Errorf("saturated target = %d, want 256 (MaxBatch cap)", got)
	}
}

// A full epoch (fill >= MaxBatch) or one at target never holds.
func TestControllerFullEpochNeverHolds(t *testing.T) {
	c := newBatchController(8, 500*time.Microsecond)
	base := time.Unix(1000, 0)
	for i := int64(0); i < 50; i++ {
		c.observeArrival(tick(base, i))
	}
	c.observeApply(time.Millisecond)
	if h := c.hold(tick(base, 50), 8); h != 0 {
		t.Errorf("full-epoch hold = %v, want 0", h)
	}
}

// The starved-pipeline grace is measured from the LAST arrival, a few
// smoothed gaps long, and clamped to [minWait, maxWait].
func TestControllerGraceFromLastArrival(t *testing.T) {
	c := newBatchController(256, 500*time.Microsecond)
	base := time.Unix(1000, 0)
	for i := int64(0); i < 100; i++ {
		c.observeArrival(tick(base, i*50)) // steady 50µs gaps
	}
	c.observeApply(10 * time.Millisecond) // high target: holds are possible
	last := tick(base, 99*50)

	// Right at the last arrival the grace (~2 gaps = 100µs) is in front of us.
	h := c.hold(last, 1)
	if h < 50*time.Microsecond || h > 500*time.Microsecond {
		t.Errorf("hold at last arrival = %v, want ~100µs in (50µs, 500µs]", h)
	}
	// Once the grace has expired, dispatch.
	if h := c.hold(tick(base, 99*50+1000), 1); h > 0 {
		t.Errorf("hold after grace = %v, want <= 0", h)
	}
}

// Idle spells between bursts must not poison the rate estimate: a gap is
// clamped, so the target recovers as soon as the next burst lands.
func TestControllerIdleGapClamped(t *testing.T) {
	c := newBatchController(256, 500*time.Microsecond)
	base := time.Unix(1000, 0)
	for i := int64(0); i < 100; i++ {
		c.observeArrival(tick(base, i*10))
	}
	c.observeApply(time.Millisecond)
	before := c.target()
	// A 10-second silence, then traffic resumes.
	c.observeArrival(tick(base, 10_000_000))
	for i := int64(0); i < 100; i++ {
		c.observeArrival(tick(base, 10_000_000+i*10))
	}
	if after := c.target(); after < before/2 {
		t.Errorf("target after idle spell = %d, want >= %d (gap clamp)", after, before/2)
	}
}
