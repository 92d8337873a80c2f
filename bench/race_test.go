//go:build race

package main

// raceEnabled skips the smoke run under the race detector: `go test -race`
// is red on internal/spacecdn at this commit (ROADMAP, "Make tier-1
// deterministic"), and the smoke run drives exactly that code from several
// goroutines.
const raceEnabled = true
