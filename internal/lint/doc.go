// Package lint is the simulator's static-analysis suite: custom
// analyzers that enforce, at compile time, the invariants the runtime
// audit subsystem (internal/audit) and the conservation tests enforce
// at run time. The paper's caching-vs-migration comparison is only
// trustworthy because the simulator is deterministic and event-time
// disciplined; these analyzers make the bug classes the audit has
// caught — map-iteration nondeterminism, wall-clock leakage, time-0
// fabric charges, unguarded observability hooks, hot-path allocation —
// fail `go vet`, not a five-second sweep.
//
// The five analyzers:
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
//   - eventtime: flags a literal 0 passed as a `now` event-time
//     parameter (fabric Traverse/Deliver, Resource.Acquire,
//     writebackRemote, ...). This is exactly the flushFrame bug class
//     PR 2 fixed at run time: a message injected at t=0 instead of
//     the emitting transaction's clock mis-times NI and home
//     occupancy and hides traffic from windowed views. A deliberate time-0 charge
//     carries a `//lint:eventtime` annotation.
//   - hotalloc: functions annotated `//repro:hotpath` may not use
//     fmt, string concatenation, closures, map literals/makes, or
//     interface-boxing conversions — the allocation sources the
//     dynamic allocs/op guard (alloc_guard_test.go) detects after
//     the fact. Arguments of panic calls are exempt: a terminating path
//     may format its last words.
//   - nilhook: every telemetry-collector call site in dsm and
//     interconnect must sit behind a nil guard, preserving the PR 6
//     invariant that an uninstrumented run pays exactly one branch
//     per hook.
//
// The suite runs three ways: standalone (`go run ./cmd/repolint
// ./...`), as a vet tool (`go vet -vettool=$(which repolint) ./...`),
// and inside `go test ./...` via the repository-root lint_test.go, so
// tier-1 verification enforces it without CI.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) so the analyzers can migrate to the
// upstream driver verbatim if the dependency ever lands; packages are
// loaded by typechecking source against compiler export data obtained
// from `go list -export`, the same mechanism vet's unitchecker uses,
// keeping the module dependency-free.
package lint
