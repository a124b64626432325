//go:build race

package router

// raceEnabled: under the race detector sync.Pool drops a share of what is
// put back, so allocation pins that rely on the arena pool do not hold.
const raceEnabled = true
