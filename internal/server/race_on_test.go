//go:build race

package server

// raceEnabled reports the race detector is compiled in; allocation
// accounting tests skip themselves (the detector's shadow memory
// distorts alloc counts).
const raceEnabled = true
