//go:build race

package registry

// raceEnabled reports a build with the race detector, under which
// sync.Pool drops a random quarter of the objects it is given.
const raceEnabled = true
