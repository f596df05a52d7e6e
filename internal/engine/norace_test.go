//go:build !race

package engine

// raceEnabled reports a build with the race detector, under which
// sync.Pool drops a random quarter of the objects it is given.
const raceEnabled = false
