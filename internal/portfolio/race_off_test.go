//go:build !race

package portfolio

const raceEnabled = false
