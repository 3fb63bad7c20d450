//go:build !race

package decomp

const raceEnabled = false
