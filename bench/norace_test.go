//go:build !race

package main

// raceEnabled: see race_test.go.
const raceEnabled = false
