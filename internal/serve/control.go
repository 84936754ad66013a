package serve

import "time"

// batchController decides when the batcher should stop holding the head
// epoch open and hand it to the applier: a runtime decision driven by
// observed load, with BatchWait only as the cap:
//
//   - It tracks an EWMA of the request inter-arrival gap and of the wall
//     cost of one Apply. Their ratio is the fill worth waiting for — the
//     number of requests expected to arrive while one batch is on the
//     device. Holding past that point adds latency without adding overlap;
//     dispatching earlier starves the kernel.
//   - When the pipeline is starved (the applier is idle and the epoch is
//     under target), it grants a short grace of a few smoothed gaps from
//     the LAST arrival. If the next request does not show up in that
//     window, the load is too sparse to batch and the epoch seals as-is —
//     a lone GET at 3 am never waits out a fixed 500 µs budget.
//
// The controller is driven from the batcher goroutine only and does all
// time arithmetic on caller-supplied instants, so tests can script it.
type batchController struct {
	maxBatch int
	maxWait  time.Duration // cap on any hold (the configured BatchWait)
	minWait  time.Duration // floor so a warm pipeline cannot busy-spin

	ewmaGapUS   float64   // smoothed inter-arrival gap, µs
	ewmaApplyUS float64   // smoothed wall cost of one Apply, µs
	lastArrival time.Time // most recent admission (zero before the first)
}

const (
	// ctrlAlpha is the EWMA smoothing factor: ~the last 10 observations.
	ctrlAlpha = 0.2
	// ctrlGrace is how many smoothed gaps a starved pipeline waits for the
	// next arrival before sealing a partial epoch.
	ctrlGrace = 2.0
	// ctrlMaxGapUS clamps one observed gap: an idle spell between bursts
	// is absence of load, not a measurement of its rate.
	ctrlMaxGapUS = 100_000.0
)

func newBatchController(maxBatch int, maxWait time.Duration) *batchController {
	return &batchController{
		maxBatch: maxBatch,
		maxWait:  maxWait,
		minWait:  20 * time.Microsecond,
	}
}

// observeArrival folds one admission instant into the arrival-rate EWMA.
func (c *batchController) observeArrival(now time.Time) {
	if !c.lastArrival.IsZero() {
		gap := float64(now.Sub(c.lastArrival)) / float64(time.Microsecond)
		if gap > ctrlMaxGapUS {
			gap = ctrlMaxGapUS
		}
		if c.ewmaGapUS == 0 {
			c.ewmaGapUS = gap
		} else {
			c.ewmaGapUS += ctrlAlpha * (gap - c.ewmaGapUS)
		}
	}
	c.lastArrival = now
}

// observeApply folds one completed batch's wall cost into the apply EWMA.
func (c *batchController) observeApply(wall time.Duration) {
	us := float64(wall) / float64(time.Microsecond)
	if c.ewmaApplyUS == 0 {
		c.ewmaApplyUS = us
	} else {
		c.ewmaApplyUS += ctrlAlpha * (us - c.ewmaApplyUS)
	}
}

// target is the epoch fill worth holding out for: the expected number of
// arrivals during one Apply, clamped to [1, MaxBatch]. Under load it grows
// toward MaxBatch (gaps shrink); on a quiet wire it collapses to 1.
func (c *batchController) target() int {
	if c.ewmaGapUS <= 0 || c.ewmaApplyUS <= 0 {
		return 1 // no rate estimate yet: don't hold anything hostage
	}
	t := int(c.ewmaApplyUS / c.ewmaGapUS)
	if t < 1 {
		t = 1
	}
	if t > c.maxBatch {
		t = c.maxBatch
	}
	return t
}

// hold returns how much longer a starved pipeline (idle applier) should
// keep the head epoch open, given its fill. A result <= 0 means dispatch now.
func (c *batchController) hold(now time.Time, fill int) time.Duration {
	if fill >= c.maxBatch || fill >= c.target() {
		return 0
	}
	grace := time.Duration(ctrlGrace * c.ewmaGapUS * float64(time.Microsecond))
	if grace < c.minWait {
		grace = c.minWait
	}
	if grace > c.maxWait {
		grace = c.maxWait
	}
	return c.lastArrival.Add(grace).Sub(now)
}
