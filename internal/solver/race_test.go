//go:build race

package solver

// raceEnabled reports whether the race detector is compiled in. Its
// instrumentation allocates, so allocation budgets skip under it.
const raceEnabled = true
