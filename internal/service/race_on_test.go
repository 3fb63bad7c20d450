//go:build race

package service

// raceEnabled: the race detector empties sync.Pools at random, so
// encoding/json allocates scratch state an ordinary build reuses, and
// allocation budgets do not hold.
const raceEnabled = true
