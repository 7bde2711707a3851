//go:build race

package reach

// Under the race detector sync.Pool deliberately drops a fraction of Puts,
// so the arena's steady-state zero-alloc guarantee does not hold there by
// construction.
const raceEnabled = true
