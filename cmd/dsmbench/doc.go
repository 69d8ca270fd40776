// Command dsmbench is the simulator's end-to-end benchmark. It times
// four workloads from outside, by calling the same public functions a
// user's program calls, checks every output it times, and attributes
// the time to layers in a separate traced run. BENCHMARK.json, at the
// repository root, declares its workloads and metrics and the bound by
// which each end-to-end metric may worsen.
//
// dsmbench is a module of its own, so that it builds from the checkout
// it measures and never from the code it is compared against. Run it
// from the repository root through run.sh, which builds it first and
// keeps every build and scratch file under .bench_build:
//
//	bash cmd/dsmbench/run.sh --workload local-s1 --seed 0 --seconds 20 --trace 0
//	bash cmd/dsmbench/run.sh                  # suite: every workload, 5 rounds
//	bash cmd/dsmbench/run.sh -quick           # suite: 1 set-up, 1 round, 1 rep
//	bash cmd/dsmbench/run.sh -compare A.json B.json
//
// # Workloads
//
// Each workload stresses different layers, so that a change to one
// layer moves the workload that exercises it and leaves the one that
// bypasses it unchanged. All load comes from this one process, with no
// more workers or connections than the host has CPUs. The simulator
// workloads run their experiments as cmd/experiments does by default,
// with one harness worker per CPU, so a rep times the harness's
// concurrent path and the TraceCache its workers share. serve-mixed is
// sized to two cores: server Workers 2 and 2 client connections, capped
// at the host's CPU count; the server simulates each cold query with
// one worker. The seed perturbs the application generators; seed 0 is
// the paper's inputs.
//
//   - paper-all-s8: RunByName of fig5, table4, fig6, fig7, fig8 and
//     toposweep at scale 8 with the audit on, on one TraceCache warmed
//     before timing, rendering the text, CSV and JSON reports — what
//     `cmd/experiments -experiment all -scale 8` does. Radix dominates
//     it; it covers all four fabrics and is where harness, rendering
//     and audit costs show. One rep takes about 4.5 s on two cores.
//   - local-s1: fig5 of ocean, fmm and raytrace on CC-NUMA at scale 1,
//     the paper's full inputs: 16.3 M trace operations per rep, of
//     which 4-9% are remote misses, and no page operations. Dispatch,
//     the L1 and block-cache hit paths and trace streaming do almost all
//     the work; fault-path, page-operation and fabric changes should not
//     move it.
//   - remote-ring-s2: fig5 of radix and migratory under migrep,
//     rnuma-half and migrep-contend on the ring fabric at scale 2.
//     Remote misses are 9-64% of each simulation's trace operations,
//     with about 18.5 k page operations per rep and write-sharing
//     invalidations from migratory. The fault path, the policies, page operations and the
//     multi-hop fabric do most of the work: the write-heavy counterpart
//     of local-s1.
//   - serve-mixed: a closed loop of 2 clients sends POST /query to an
//     in-process serve.Server behind a loopback httptest server with an
//     on-disk result store, CacheEntries 4 and Workers 2. A rep is one
//     pass of 400 queries, always in the same order, drawn from an LCG
//     seeded by the workload seed. The query is fig5 of radix and ocean
//     on ccnuma and migrep at scale 64. One query in each block of 10
//     uses a fresh seed: trace generation, an audited simulation and a
//     result-store write. The rest draw from 8 hot seeds warmed at
//     set-up, which overflow the LRU and split between LRU hits and disk
//     reads. The loop is closed because research scripts wait for each
//     answer. Each pass runs against a server started, untimed, on a copy
//     of the result store as set-up left it, with its LRU re-warmed from
//     disk, so the fresh seeds are cold for it and every pass does the
//     same work from the same state. This also bounds memory: the server
//     keeps every trace it generates, about 4 MB per fresh seed.
//
// # Metrics and the estimator
//
// BENCHMARK.json bounds two end-to-end metrics, reported for every
// workload: setup_s, the median set-up (trace generation, plus server
// start and hot-set warm-up for serve-mixed), and peak_rss_mb, the
// highest resident size any rep reached. The high-water mark restarts
// before each rep from a collected heap returned to the system (Linux's
// /proc permitting), so neither set-up nor the checks between reps
// count: their transient garbage peaks wherever the concurrent GC
// happens to catch up, which varied a whole-run peak by up to 15%.
// Failed checks are not a metric: the result line's failed and attempted
// fields carry them, and the suite report's failed_frac is their ratio.
//
// A run times at least five set-ups, and more while they have taken
// under two seconds, up to 25. It then times reps until the next would
// overrun -seconds (half of it in a traced run), and at least three.
// Each timing is the median over reps, printed with its quartiles and
// count. Every set-up and rep starts from a collected heap, so the GC's
// phase does not vary from run to run. Checks, and the untimed work
// between reps, do not count against -seconds.
//
// A rep's own timings are run_s (wall time), cpu_s (user plus system CPU
// time, from getrusage) and ops_per_s (trace operations replayed, or
// queries answered, per second). They are what a user waits for, but
// they carry no bound: the traced run reports them among the per-layer
// metrics. A timing's bound may be at most 10%, and on the 2-vCPU Xeon
// VM this benchmark was built on, whose L3 and memory bus other tenants
// share, no run length the time budget allows repeats that closely. A
// rep's time moves by 15-25% in phases lasting from seconds to minutes.
// Over ten seeds of traced runs (10 s of reps each), the run medians of
// run_s spread (interquartile range over median) 21% for paper-all-s8,
// 17% for local-s1 and 13% for remote-ring-s2 and serve-mixed; serial
// reps over 25 s had spread 13%, 10%, 9% and 6%. Between two suites of
// the same tree, run_s moved by 17-43%. Neither another estimator nor
// normalizing helped: over 20-s windows of local-s1 reps, the minimum,
// the 10th and 25th percentiles and the median of best-of-3 groups all
// spread more than the median, and dividing each rep by a fixed pure-Go
// loop timed beside it cut the reps' spread only from 15% and 21% to
// 14%. setup_s is bounded all the same, at 25%, the largest bound, so
// that work moved into set-up shows. Its run medians spread 3-40%, and
// the medians of two ten-seed sets half an hour apart differed by -13%
// to +61% (serve-mixed), so a shift in the host's speed between sets
// can exceed even that bound. peak_rss_mb spreads under 3% and is
// bounded at 10%.
//
// A latency percentile pools every pass's requests and is printed only
// when at least ten samples lie beyond it; otherwise it reads 0 and the
// run says why. serve-mixed's warm (LRU or disk) and cold (simulated)
// latency percentiles and its query rate are per-layer metrics, because
// every end-to-end metric must apply to every workload.
//
// Every run prints a calibration reading: a fixed pure-Go loop timed
// before each rep. It flags a slow or busy host and is not used to
// normalize anything. The suite times it once per round and records it
// with the Go version, CPU count, GOMAXPROCS and commit.
//
// # Output checks
//
// Every timed rep is checked, outside the timing. For the simulator
// workloads at seed 0, each CSV record and the text report's SHA-256
// must equal the committed testdata/<workload>.csv and
// testdata/<workload>.text.sha256, which are cmd/experiments' output
// for the same flags; at other seeds, every rep must reproduce the
// first rep byte for byte. The JSON report must be identical across
// reps. For serve-mixed, every answer must be a 200 whose body equals
// harness.RunByName's records for the same query, encoded as
// cmd/experiments -json encodes them. A mismatch, error or audit
// violation counts as a failed check; the run exits 1 if any check
// failed. To rewrite the references after a deliberate change of
// results, run go test -run TestReferencesAreCommitted -update.
//
// # The traced run
//
// With -trace 1 a run reports the per-layer metrics instead: the rep
// timings from untraced reps over half of -seconds, the rest from traced
// rounds over the other half. A traced round is serial (Parallel 1, one
// client). For the simulator workloads it runs the workload's
// experiments as a rep does, with a span around each harness.RunByName
// call and renderer, then generates the traces through
// apps.Info.Generate and replays the exact simulation list through
// dsm.NewMachine, (*Machine).Execute, audit.Check and (*Machine).Stats,
// each simulation audited and again unaudited. It replays twice, first
// with no tracer and then with a span around each call. The records
// rebuilt by each replay must equal the harness's, which checks the
// replay list against the harness. For
// serve-mixed it sends closed-loop passes for the percentiles and
// cache counts, a one-client pass with a span around each HTTP request,
// times Server.Answer in-process, and simulates and replays cold
// queries directly. Every traced round ends with fixed probe loops over
// the L1, block-cache and page-cache lookups, the scheduler's
// Peek/Requeue cycle and the ring's Traverse. Metrics of a layer a
// workload does not exercise read 0.
//
// Derived per-layer metrics subtract separately timed quantities, so
// each can read below zero when the difference is within the noise:
// audit.online_s is audited minus unaudited Execute time;
// serve.http_overhead_us is an HTTP hit's latency minus an in-process
// Answer; serve.queue_wait_ms is a cold HTTP query's latency minus a
// direct simulation of the same shape. harness.self_s is the serial
// RunByName time minus the untraced replay's build, audited execute and
// check, and minus the text rendering (simulator workloads) or trace
// generation (serve-mixed, whose cold path generates inside RunByName);
// it is floored at 0, since the harness's own work is small beside the
// noise of the quantities it subtracts. tracing.overhead is the wall
// time of the same serial work traced over untraced: the replay for the
// simulator workloads, a one-client pass for serve-mixed.
//
// No default path exercises the on-disk trace store or telemetry: both
// CLIs leave them off. internal/core is used only by the examples, lint
// runs at compile time, and directory and memory show only through the
// dsm counts.
//
// # The span file
//
// With -spans FILE, a traced run appends its spans to FILE, one JSON
// object a line: id, parent (0 for a round's root), name (the function
// called, such as "dsm.Machine.Execute"), layer (the module: apps, dsm,
// audit, harness, serve, cache, engine, interconnect, or dsmbench for
// the benchmark's own work), workload, start_ns (since the run began),
// dur_ns, and attr where the name needs qualifying: the experiment of a
// RunByName, the cache layer that answered an HTTP query, or
// "audit=off". A span's self time is its duration minus its direct
// children's; a traced run prints each layer's total self time.
//
// # Suites and comparisons
//
// Without -workload, dsmbench runs a suite: five rounds, each running
// every workload once, for its minimum of three reps, in its own child
// process (a re-exec of the binary), round-robin, so that a burst of
// host noise hits every workload alike and each child's set-up time and
// peak memory are its own; then one traced child per workload, whose
// three untraced reps give the rep timings. It writes a report (-o) with
// each end-to-end metric's median, quartiles and round count, the
// per-layer metrics, failed_frac and the host fingerprint.
//
// dsmbench -compare A.json B.json prints, for every workload and
// end-to-end metric, the change of the median from A to B in the
// worsening direction against the metric's BENCHMARK.json bound, and a
// verdict: better, within, worse, or unresolved when either report's
// interquartile range, relative to its median, is wider than the bound.
// It warns when the two hosts' calibration readings differ by more than
// 15%, and exits 1 if any verdict is worse. baseline/ holds two suite
// reports of one tree on that VM and their comparison.
package main
