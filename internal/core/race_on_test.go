//go:build race

package core_test

// raceEnabled: the race detector instruments allocation, so allocation
// budgets do not hold under it.
const raceEnabled = true
