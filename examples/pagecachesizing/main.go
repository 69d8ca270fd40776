// Pagecachesizing explores the R-NUMA design-cost question behind
// Figure 8: how much S-COMA page cache does a workload actually need?
// It sweeps the per-node page cache from an eighth of the paper's 2.4 MB
// up to unbounded and reports execution time, relocations and
// replacements. Workloads whose primary working set fits show a knee;
// radix (whose footprint exceeds any practical cache) keeps paying
// replacements, exactly the behaviour the paper reports.
//
//	go run ./examples/pagecachesizing [-app radix] [-scale 4]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/dsm"
	"repro/internal/stats"
)

func main() {
	app := flag.String("app", "radix", "application to sweep")
	scale := flag.Int("scale", 4, "problem-size divisor")
	flag.Parse()

	cl := config.DefaultCluster()
	tm, th := config.Default(), config.DefaultThresholds()

	info, err := apps.ByName(*app)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := info.Generate(apps.Params{CPUs: cl.TotalCPUs(), Scale: *scale})
	if err != nil {
		log.Fatal(err)
	}
	base, err := dsm.RunBaseline(tr, cl, dsm.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s: %.2f MB shared footprint; page cache sweep\n\n",
		*app, float64(tr.Footprint)/(1<<20))
	fmt.Printf("%-12s %10s %12s %12s %12s\n",
		"page cache", "normalized", "relocations", "replacements", "remote miss")

	sizes := []int{
		config.PageCacheBytes / 8,
		config.PageCacheBytes / 4,
		config.PageCacheBytes / 2,
		config.PageCacheBytes,
		2 * config.PageCacheBytes,
		0, // unbounded
	}
	for _, size := range sizes {
		spec := dsm.RNUMA()
		spec.PageCacheBytes = size
		label := fmt.Sprintf("%.1f MB", float64(size)/(1<<20))
		if size == 0 {
			spec = dsm.RNUMAInf()
			label = "infinite"
		}
		sim, err := dsm.Run(tr, spec, cl, tm, th)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %10.3f %12d %12d %12d\n",
			label,
			sim.Normalized(base),
			sim.PageOpsByKind(stats.Relocation),
			sim.PageOpsByKind(stats.Replacement),
			sim.TotalRemoteMisses())
	}
}
