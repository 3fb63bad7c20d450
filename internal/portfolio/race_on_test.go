//go:build race

package portfolio

// raceEnabled: the race detector instruments allocation, so allocation
// budgets read differently under it.
const raceEnabled = true
