//go:build race

package stack

// raceEnabled reports whether the race detector is compiled in. It
// drops sync.Pool puts at random, so allocation budgets skip under it.
const raceEnabled = true
