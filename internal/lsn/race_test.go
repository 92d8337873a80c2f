//go:build race

package lsn

// raceEnabled skips exact-zero allocation assertions under the race
// detector, whose instrumentation allocates on otherwise alloc-free paths.
const raceEnabled = true
