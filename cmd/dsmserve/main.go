// Command dsmserve runs the simulation query server: a long-lived
// process answering capacity-planning queries over HTTP/JSON with the
// exact Record documents cmd/experiments -json emits, memoized
// content-addressed in memory and (optionally) on disk, with
// single-flight coalescing and bounded-queue backpressure
// (internal/serve).
//
// Usage:
//
//	dsmserve -addr :8080 -resultstore .resultstore
//	curl 'http://localhost:8080/query?experiment=fig5&apps=radix&scale=64'
//	curl -d '{"experiment":"fig5","apps":["radix"],"scale":64}' http://localhost:8080/query
//	curl http://localhost:8080/statusz
//
// Endpoints:
//
//	/query    GET (URL parameters) or POST (JSON body); responds with
//	          the Record array, an X-Dsm-Cache header naming the layer
//	          that answered (hit, disk, miss, coalesced), 429 +
//	          Retry-After under backpressure
//	/statusz  JSON counters: per-layer query counts, pool and cache
//	          occupancy, trace-cache statistics summed over queries
//	/healthz  liveness probe
//
// The first SIGINT/SIGTERM drains gracefully: the listener stops
// accepting, in-flight requests and accepted simulations finish, then
// the process exits 0. A second signal aborts running simulations.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		resultStore = flag.String("resultstore", "", "directory of the on-disk result store (empty = memory only)")
		cacheSize   = flag.Int("cache", 128, "in-memory result LRU capacity (entries)")
		workers     = flag.Int("workers", runtime.GOMAXPROCS(0), "simulations run at once, shared by all cold queries")
		queue       = flag.Int("queue", 0, "cold-path queue depth before 429 (0 = 4x workers)")
	)
	flag.Parse()

	cfg := serve.Config{
		CacheEntries: *cacheSize,
		Workers:      *workers,
		QueueDepth:   *queue,
	}
	if *resultStore != "" {
		rs, err := serve.OpenResultStore(*resultStore)
		if err != nil {
			return err
		}
		cfg.Store = rs
	}
	srv := serve.New(cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// Bounded reads stop slow or idle clients from holding connections.
	// WriteTimeout stays unset: a cold simulation can legitimately run
	// for minutes, and the request context already cancels it when the
	// client goes away.
	httpSrv := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	fmt.Fprintf(os.Stderr, "dsmserve: listening on %s\n", ln.Addr())

	// Graceful drain: the first signal stops the listener and waits for
	// in-flight requests and accepted simulations; a second signal
	// aborts the simulations so a stuck drain still terminates.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()

	select {
	case err := <-done:
		return err
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "dsmserve: %s; draining\n", s)
		go func() {
			s := <-sig
			fmt.Fprintf(os.Stderr, "dsmserve: %s again; aborting simulations\n", s)
			srv.Abort()
		}()
		if err := httpSrv.Shutdown(context.Background()); err != nil {
			return err
		}
		srv.Drain()
		fmt.Fprintln(os.Stderr, "dsmserve: drained")
		return nil
	}
}
