// Package lint is the simulator's static-analysis suite: custom
// analyzers that enforce, at compile time, the invariants the runtime
// audit subsystem (internal/audit) and the conservation tests enforce
// at run time. The paper's caching-vs-migration comparison is only
// trustworthy because the simulator is deterministic; these analyzers
// make the bug classes the audit has caught — map-iteration
// nondeterminism, wall-clock leakage, hot-path allocation — fail
// `go test`, not a five-second sweep.
//
// The three analyzers:
//
//   - mapiter: flags `range` over a map in the deterministic core
//     (dsm, engine, interconnect, trace, telemetry, stats). Map
//     iteration order is randomized by the runtime, so any map range
//     whose effect is order-sensitive breaks byte-stable reports and
//     deterministic traces. Loops that are genuinely
//     order-insensitive (collecting keys to sort, building another
//     map, pure accumulation) carry a `//lint:unordered` annotation.
//   - walltime: forbids wall-clock and global-randomness sources
//     (time.Now/Since/Until, package-level math/rand) in simulation
//     packages. Wall time is presentation-layer input: only the
//     harness progress/manifest code and the cmd/ and examples/
//     binaries may observe it, and they pass it down as values.
//   - hotalloc: functions annotated `//repro:hotpath` may not use
//     fmt, string concatenation, closures, map literals/makes,
//     interface-boxing conversions, or pass concrete values to a
//     variadic interface parameter — the allocation sources the
//     dynamic allocs/op guard (alloc_guard_test.go) detects after
//     the fact. Arguments of panic calls are exempt: a terminating path
//     may format its last words.
//
// No analyzer guards the telemetry hooks: a nil *telemetry.Collector
// is a no-op observer, each hook checks its own receiver, and CI's
// cursor-inlines step requires every hook to stay inlinable, so an
// uninstrumented run pays one branch per hook at any call site.
//
// No analyzer guards event times either. A machine in audit mode
// (dsm.Machine.EnableAudit) checks every resource acquire and fabric
// injection against the time of the event being dispatched, which
// also catches a stale time a literal-0 check cannot see: a named
// zero, a computed one, or one a busy resource's queue hides.
//
// The suite runs inside `go test ./...`: the repository-root
// lint_test.go applies it to every package of the module, so tier-1
// verification enforces it without CI, and the fixture tests apply each
// analyzer to its packages under testdata/src. Both go through Run, the
// one loader and runner.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) so the analyzers can migrate to the
// upstream driver verbatim if the dependency ever lands; packages are
// loaded by typechecking source against compiler export data obtained
// from `go list -export`, the same mechanism vet's unitchecker uses,
// keeping the module dependency-free.
package lint
