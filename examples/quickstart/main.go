// Quickstart: run one SPLASH-2 workload on the paper's two main systems
// and print the comparison — the minimal use of the library.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"

	"repro/internal/apps"
	"repro/internal/harness"
)

func main() {
	fmt.Println("available applications:", apps.Names())
	fmt.Println()

	systems := []string{"ccnuma", "migrep", "rnuma"}
	res, err := harness.RunByName("fig5", harness.Options{
		Scale:   4, // a quick run; use 1 for the full reproduction size
		Apps:    []string{"lu"},
		Systems: systems,
		Audit:   true,
		Out:     io.Discard,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Result columns follow the requested order; print the registry
	// names asked for rather than the presentation labels.
	for i, sys := range systems {
		run := res.Runs["lu"][res.Systems[i]]
		fmt.Printf("%-8s normalized execution time %.3f (vs perfect CC-NUMA)\n",
			sys, run.Norm)
		fmt.Print(run.Stats.Summary())
		fmt.Println()
	}
}
