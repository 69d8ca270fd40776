package stats

import "fmt"

// maxViolations bounds the violation strings a log retains; the count
// beyond it is still tracked.
const maxViolations = 16

// ViolationLog accumulates audit-violation descriptions with a bounded
// memory footprint: a dsm machine records its dispatch-order and
// page-busy violations into one while running in audit mode, and the
// end-of-run checks of internal/audit read them back.
type ViolationLog struct {
	kept  []string
	extra int64 // violations beyond the recording cap
}

// Addf records one violation, capping the retained strings.
func (l *ViolationLog) Addf(format string, args ...any) {
	if len(l.kept) < maxViolations {
		l.kept = append(l.kept, fmt.Sprintf(format, args...))
		return
	}
	l.extra++
}

// All returns the recorded violations, with a trailing summary line
// when the cap was exceeded. Empty means a clean run.
func (l *ViolationLog) All() []string {
	out := append([]string(nil), l.kept...)
	if l.extra > 0 {
		out = append(out, fmt.Sprintf("... and %d further violations", l.extra))
	}
	return out
}
