//go:build race

package server

// raceEnabled lets a long single-goroutine test shrink under the race
// detector, which slows it tenfold and can find nothing in it.
const raceEnabled = true
