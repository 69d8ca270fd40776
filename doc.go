// Package repro is a reproduction of Lai & Falsafi, "Comparing the
// Effectiveness of Fine-Grain Memory Caching against Page
// Migration/Replication in Reducing Traffic in DSM Clusters" (SPAA
// 2000): a simulated cluster of eight 4-way SMPs with CC-NUMA,
// CC-NUMA+MigRep and R-NUMA memory systems, seven SPLASH-2-style
// shared-memory applications, and a harness regenerating every table and
// figure of the paper's evaluation.
//
// # Memory systems are plain data
//
// The paper compares memory systems that differ only in which
// mechanisms are switched on: a block cache, home-driven page
// migration/replication, or R-NUMA relocation into a page cache. A
// system is therefore a value (internal/dsm): a Spec carries the cache
// sizes and the flags that switch each mechanism on, is validated at
// construction, and is read by the fault paths to decide which page
// operations run. A package-level registry (dsm.Register / dsm.Lookup
// / dsm.Systems) maps stable names — "ccnuma", "migrep",
// "rnuma-half-migrep", ... — to Spec constructors, mirroring how
// internal/apps registers workloads. Every CLI and the harness resolve
// systems only by these names; the contention-aware "migrep-contend"
// is MigRep with one more flag (defer page moves while their route is
// the fabric's hot spot).
//
// # Experiments return structured results
//
// internal/harness holds the experiments as rows of one table (fig5,
// table4, fig6, fig7, fig8, toposweep, and scalesweep outside "all"),
// runs any of them over any registered system set (Options.Systems)
// and returns a structured Result: one Record per (application,
// system, fabric) run with normalized time, miss and page-operation
// breakdowns, traffic, and interconnect hot-link/bisection statistics.
// RunQuery runs each distinct simulation of a harness.Query once.
// RunByName writes an experiment's paper-style text report (locked
// byte-for-byte by golden tests); Records, WriteCSVRows and
// RecordsJSON emit the flat records. cmd/experiments and cmd/dsmserve
// both call RunQuery, so -json and a served answer are the same bytes.
//
// # Beyond the paper
//
// internal/interconnect models the cluster fabric as an explicit graph
// of one of four topologies (ideal crossbar, ring, 2D mesh, fat-tree)
// with deterministic routing, a fixed latency per hop and per-link
// byte counters; every protocol message the machines exchange is
// routed over it. The default ideal crossbar reproduces the paper's
// flat network-latency model exactly, while the topology-sweep
// experiment (cmd/experiments -experiment toposweep) re-runs the
// Figure 5 comparison across fabrics and reports maximum per-link and
// bisection traffic — where migration/replication's bulk 4-KB page
// moves congest links that fine-grain 64-byte caching does not.
//
// internal/telemetry adds time-resolved observability on top of the
// end-of-run statistics: windowed series keyed by simulated time (page
// operations by kind, misses by class, per-node traffic, per-link
// fabric bytes, dispatches), a timeline of discrete page operations
// exportable as Chrome trace-event JSON (loadable in Perfetto) and
// CSV, and run manifests that pin each result to its exact inputs —
// content-addressed trace hashes, systems, fabric, scale, seed, wall
// time and build metadata. Collection is strictly observational
// (byte-identical statistics with it on or off, a tested invariant)
// and opt-in per run: -telemetry/-timeline/-window/-progress on both
// CLIs, Options.Telemetry in the harness, RunOptions.Telemetry at the
// dsm layer. Every windowed series sums exactly to its aggregate
// counter, so the time-resolved view never disagrees with the tables.
//
// The simulator audits itself. Every page operation and asynchronous
// writeback carries an explicit event time, and audit mode — on by
// default in cmd/experiments and cmd/dsmsim (-audit=false disables),
// always on in the harness tests — enforces event-time discipline while
// a machine runs (no fabric injection in the simulated past, no
// page-busy regression, in-order dispatch) and runs the internal/audit
// conservation checks over every finished run: summed per-node traffic
// counters must equal the fabric's per-pair injected bytes, per-link
// bytes must equal the hop-weighted pair totals, and the directory must
// agree with the caches. A protocol path that skews the paper's traffic
// tables therefore fails loudly instead of silently.
//
// internal/serve turns the simulator into a service: cmd/dsmserve
// answers capacity-planning queries (experiment, apps, systems,
// fabric, scale, seed) over HTTP/JSON with the exact Record documents
// cmd/experiments -json emits — byte-identical, a tested invariant —
// from a three-layer stack built for concurrent traffic: responses
// memoized content-addressed (in a bounded LRU over an optional
// CRC-framed on-disk result store), identical concurrent cold queries
// coalesced into a single flight so a thundering herd runs one
// simulation, and cold work bounded by a worker pool that sheds
// overload with 429 + Retry-After and drains cleanly on SIGTERM.
// The server holds a trace only while the query that needs it runs.
//
// What the run-time audits enforce dynamically, internal/lint enforces
// statically: repolint (cmd/repolint, also runnable as a go vet
// -vettool and inside go test via the root lint_test.go) is a
// go/analysis-style suite that rejects nondeterministic map iteration
// in the core, wall-clock and global-randomness reads in simulation
// packages, literal-0 event times on fabric and page-op seams, and
// allocating constructs in functions annotated //repro:hotpath, and
// requires every telemetry hook in the core to sit behind a nil guard.
// The invariants the golden files, the trace pins and the allocation
// guard test by example are thus also checked at compile time, on
// every path.
//
// See README.md for a quickstart, cmd/experiments for the reproduction
// driver, and cmd/dsmbench for the end-to-end benchmark.
package repro
