// Latencysweep reproduces the Figure 7 experiment as a curve: how the
// three main systems respond as the network latency grows from the base
// 80 cycles to 8x that (remote:local ratios of 4 to 32). The paper's
// observation — CC-NUMA degrades fastest, R-NUMA is the most latency
// tolerant — appears as the divergence of the rows.
//
//	go run ./examples/latencysweep [-app radix] [-scale 4]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/dsm"
)

func main() {
	app := flag.String("app", "radix", "application to sweep")
	scale := flag.Int("scale", 4, "problem-size divisor")
	flag.Parse()

	systems := []string{"ccnuma", "migrep", "rnuma"}
	factors := []int64{1, 2, 4, 8}

	cl, th := config.DefaultCluster(), config.DefaultThresholds()
	specs, err := dsm.ResolveSpecs(systems, th)
	if err != nil {
		log.Fatal(err)
	}
	info, err := apps.ByName(*app)
	if err != nil {
		log.Fatal(err)
	}
	// One trace and one baseline serve every cell: the baseline runs
	// under the base timing whatever the latency factor.
	tr, err := info.Generate(apps.Params{CPUs: cl.TotalCPUs(), Scale: *scale})
	if err != nil {
		log.Fatal(err)
	}
	ro := dsm.RunOptions{Audit: true}
	base, err := dsm.RunBaseline(tr, cl, ro)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("normalized execution time of %s vs network latency\n", *app)
	fmt.Printf("%-8s", "system")
	for _, f := range factors {
		fmt.Printf(" %7dx", f)
	}
	fmt.Println()

	for i, sys := range systems {
		fmt.Printf("%-8s", sys)
		for _, f := range factors {
			sim, err := dsm.RunWithOptions(tr, specs[i], cl, config.Default().ScaleNetwork(f), th, ro)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf(" %8.3f", sim.Normalized(base))
		}
		fmt.Println()
	}
}
