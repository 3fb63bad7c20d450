//go:build race

package decomp

// raceEnabled: the race detector instruments allocation, so allocation
// budgets do not hold under it.
const raceEnabled = true
