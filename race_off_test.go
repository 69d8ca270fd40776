//go:build !race

package repro

// raceEnabled reports whether the race detector instruments this build.
// The allocation guard skips under race: instrumentation adds
// allocations that its ceilings do not account for.
const raceEnabled = false
