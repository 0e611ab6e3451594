//go:build !race

package coord

const raceEnabled = false
