//go:build !race

package server

// raceEnabled reports a -race build, whose detector changes what the
// allocation gates count.
const raceEnabled = false
