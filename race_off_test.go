//go:build !race

package reach

const raceEnabled = false
