//go:build race

package gpu

// raceEnabled reports a -race build, whose runtime drops sync.Pool items at
// random and so inflates allocation counts.
const raceEnabled = true
