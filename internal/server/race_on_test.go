//go:build race

package server

// Under the race detector sync.Pool deliberately drops a fraction of Puts,
// so allocation counts there are not the program's.
const raceEnabled = true
