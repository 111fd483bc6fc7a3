// Command experiments regenerates every experiment table of the
// reproduction (docs/architecture.md, "Experiments"): the cost scalings of
// Theorems 2.1, 3.1 and 4.1, the lower-bound constructions of Theorems 2.4
// and 3.2, the baseline comparisons, the accuracy audit, and the Figure 1
// tree-shape statistics.
//
// Usage:
//
//	experiments [-quick] [-csv] [-only E3]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"disttrack/internal/harness"
)

func main() {
	quick := flag.Bool("quick", false, "run at reduced stream lengths")
	ablations := flag.Bool("ablations", true, "include the design-choice ablation tables (A1-A4)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	only := flag.String("only", "", "run only tables whose title contains this substring (e.g. E3)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				log.Fatalf("cpuprofile: %v", err)
			}
		}()
	}

	start := time.Now()
	tables := harness.Experiments(*quick)
	if *ablations {
		tables = append(tables, harness.Ablations(*quick)...)
	}
	for _, tb := range tables {
		if *only != "" && !strings.Contains(tb.Title, *only) {
			continue
		}
		if *csv {
			fmt.Printf("# %s\n%s\n", tb.Title, tb.CSV())
		} else {
			fmt.Println(tb.String())
		}
	}
	fmt.Fprintf(os.Stderr, "done in %v\n", time.Since(start).Round(time.Millisecond))
}
