//go:build race

package coord

// raceEnabled: the race detector's instrumentation allocates, so exact
// allocation counts are not comparable under it.
const raceEnabled = true
