// Command aqbench regenerates the paper's tables and figures on synthetic
// cities and prints them in the same rows/series layout.
//
// Usage:
//
//	aqbench -exp table1                 # matrix composition, full paper scale
//	aqbench -exp table2 -scale 0.15     # runtime savings on scaled cities
//	aqbench -exp fig3                   # JT errors per model and budget
//	aqbench -exp fig4                   # GAC metrics for vaccination centers
//	aqbench -exp fig5                   # predicted MAC choropleths
//	aqbench -exp ablations              # design-choice ablations
//	aqbench -exp all
//
// Serving performance is measured by the repo benchmark (go run
// ./benchmark), not here.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"

	"accessquery/internal/buildinfo"
	"accessquery/internal/core"
	"accessquery/internal/experiments"
	"accessquery/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("aqbench: ")
	var (
		exp     = flag.String("exp", "all", "experiment: table1|table2|fig3|fig4|fig5|ablations|temporal|bank|all (bank is excluded from all)")
		scale   = flag.Float64("scale", 0.15, "city scale for measured experiments (table1 always runs at full scale)")
		samples = flag.Int("samples", 10, "TODAM start-time samples per hour for measured experiments")
		models  = flag.String("models", "", "comma-separated model subset (default: all five)")
		csvOut  = flag.Bool("csv", false, "emit fig3/fig4/fig5 as CSV instead of formatted tables")
		csvFig5 = flag.Bool("fig5csv", false, "emit fig5 as CSV instead of ASCII maps")
		par     = flag.Int("parallelism", runtime.GOMAXPROCS(0), "worker pool for engine pre-processing and feature stages (results identical; timings change)")
		debug   = flag.String("debug-addr", "", "optional loopback listener for /metrics and /debug/pprof while experiments run")
		version = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "aqbench")
		return
	}
	buildinfo.Register()
	if *debug != "" {
		dbg, bound, err := obs.StartDebugServer(*debug, nil, nil)
		if err != nil {
			log.Fatalf("debug listener: %v", err)
		}
		defer dbg.Close()
		log.Printf("debug endpoints (pprof, metrics) on http://%s", bound)
	}
	if *exp == "bank" {
		// The bank benchmark builds its own engine and needs no suite; it
		// never runs under -exp all.
		if err := runBankBench(os.Stdout, *scale, *par); err != nil {
			log.Fatalf("bank: %v", err)
		}
		return
	}
	s := experiments.NewSuite(*scale)
	s.SamplesPerHour = *samples
	s.Parallelism = *par
	if *models != "" {
		s.Models = nil
		for _, m := range strings.Split(*models, ",") {
			s.Models = append(s.Models, core.ModelKind(strings.ToUpper(strings.TrimSpace(m))))
		}
	}
	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := fn(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
	}
	w := os.Stdout
	run("table1", func() error { return s.PrintTable1(w) })
	run("table2", func() error { return s.PrintTable2(w) })
	run("fig3", func() error {
		if *csvOut {
			return s.WriteFig3CSV(w)
		}
		return s.PrintFig3(w)
	})
	run("fig4", func() error {
		if *csvOut {
			return s.WriteFig4CSV(w)
		}
		return s.PrintFig4(w)
	})
	run("fig5", func() error {
		if *csvFig5 || *csvOut {
			return s.WriteFig5CSV(w)
		}
		return s.PrintFig5(w)
	})
	run("ablations", func() error {
		if err := s.PrintAblations(w); err != nil {
			return err
		}
		return s.PrintAblations2(w)
	})
	run("temporal", func() error { return s.PrintTemporal(w) })
	run("extensions", func() error { return s.PrintExtensionComparison(w) })
	switch *exp {
	case "table1", "table2", "fig3", "fig4", "fig5", "ablations", "temporal", "extensions", "bank", "all":
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
}
