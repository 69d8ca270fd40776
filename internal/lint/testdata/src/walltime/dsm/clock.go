// Package dsm is a walltime fixture: a simulation-core package that
// must not observe wall time or the global rand source.
package dsm

import (
	"math/rand"
	"time"
)

// stamp reads the wall clock directly and must be flagged.
func stamp() int64 {
	return time.Now().UnixNano() // want `time\.Now in simulation package repro/internal/lint/testdata/src/walltime/dsm`
}

// elapsed uses time.Since, which reads the wall clock internally.
func elapsed(start time.Time) time.Duration {
	return time.Since(start) // want `time\.Since in simulation package repro/internal/lint/testdata/src/walltime/dsm`
}

// jitter draws from the globally seeded shared source.
func jitter() int {
	return rand.Intn(8) // want `global rand\.Intn in simulation package repro/internal/lint/testdata/src/walltime/dsm`
}

// seededDelay draws from an explicitly seeded local source: the draw is
// reproducible, so methods on *rand.Rand are allowed.
func seededDelay(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(8)
}

// format consumes a caller-supplied time value: observing a time.Time
// passed down from the harness is fine, only producing one is not.
func format(created time.Time) string {
	return created.UTC().Format(time.RFC3339)
}
