// Topologysweep runs one application on the paper's three main systems
// — plus the registry-grown contention-aware MigRep — across
// interconnect fabrics (ideal crossbar, ring, 2D mesh) and prints each
// run's hot-link table: which physical links carry the traffic, how
// loaded the hottest one is, and how much crosses the cluster
// bisection. Migration/replication's bulk 4-KB page moves concentrate
// load on the links near hot pages' homes in ways fine-grain 64-byte
// caching does not — visible here, invisible in the flat-latency
// model. "migrep-contend" (a dsm-registry policy; no core or protocol
// changes were needed to add it here) defers those moves while their
// route is the fabric's hot spot.
//
//	go run ./examples/topologysweep [-app migratory] [-scale 4] [-hot 5]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"

	"repro/internal/config"
	"repro/internal/harness"
)

func main() {
	app := flag.String("app", "migratory", "application to sweep")
	scale := flag.Int("scale", 4, "problem-size divisor")
	hot := flag.Int("hot", 5, "hot links to print per run")
	flag.Parse()

	systems := []string{"ccnuma", "migrep", "migrep-contend", "rnuma"}
	fabrics := []string{config.TopoCrossbar, config.TopoRing, config.TopoMesh}

	// One trace cache across the fabrics: the workload is generated
	// once and replayed on every fabric.
	traces := harness.NewTraceCache()
	for _, fabric := range fabrics {
		fmt.Printf("== %s fabric ==\n", fabric)
		res, err := harness.RunByName("fig5", harness.Options{
			Scale:   *scale,
			Apps:    []string{*app},
			Systems: systems,
			Fabric:  fabric,
			Audit:   true,
			Traces:  traces,
			Out:     io.Discard,
		})
		if err != nil {
			log.Fatal(err)
		}
		for i, sys := range systems {
			run := res.Runs[*app][res.Systems[i]]
			fmt.Printf("%-8s normalized %.3f, max link %d KB\n",
				sys, run.Norm, run.Stats.Net.MaxLink().Bytes/1024)
			fmt.Print(run.Stats.Net.NetReport(*hot))
		}
		fmt.Println()
	}
}
