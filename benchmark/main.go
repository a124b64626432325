// Command benchmark is the repository's performance yardstick: it builds
// cmd/aqserver, boots it as a subprocess with production-default flags,
// drives POST /v1/query and the scenario resource from a 2-connection
// closed loop on four workloads, and prints end-to-end metrics; with
// -trace 1 it instead runs the workload serially in-process with a span
// around every call into a layer's public functions and prints the
// per-layer table. BENCHMARK.json at the repository root names every
// workload, metric, unit and regression bound; README.md explains them.
//
//	go run ./benchmark                                  # every workload, both modes
//	go run ./benchmark -workload hot_repeat -seed 3     # one end-to-end run
//	go run ./benchmark -workload hot_repeat -trace 1    # its layer table
//	go run ./benchmark -compare a.jsonl b.jsonl         # judge set b against set a
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all of them, end to end and traced)")
		seed         = flag.Int64("seed", 1, "workload seed: the same seed generates the same requests")
		seconds      = flag.Float64("seconds", 0, "measured window in seconds (default: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics against the subprocess; 1: per-layer metrics from the serial in-process traced run")
		out          = flag.String("out", "", "result-set file every run is appended to (default benchmark/out/runs.jsonl)")
		compare      = flag.Bool("compare", false, "compare two result-set files given as arguments and exit non-zero if the second regressed")
	)
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		return fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		return fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			return fatal(fmt.Errorf("-compare wants two result-set files"))
		}
		a, err := readSet(flag.Arg(0))
		if err != nil {
			return fatal(err)
		}
		b, err := readSet(flag.Arg(1))
		if err != nil {
			return fatal(err)
		}
		if compareSets(os.Stdout, spec, a, b) {
			return 1
		}
		return 0
	}

	cfg := config{
		root: root, outDir: filepath.Join(root, "benchmark", "out"), spec: spec,
		seed: *seed, seconds: *seconds, scale: defaultScale, traceQueries: 20,
	}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(spec.RunSeconds)
	}
	if err := os.MkdirAll(filepath.Join(cfg.outDir, "snapshots"), 0o755); err != nil {
		return fatal(err)
	}
	if *out == "" {
		*out = filepath.Join(cfg.outDir, "runs.jsonl")
	}
	// An interrupt cancels the context; every path that owns a subprocess
	// stops it before returning.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if cfg.bin, err = buildServer(ctx, root, cfg.outDir); err != nil {
		return fatal(err)
	}

	type job struct {
		workload string
		trace    bool
	}
	var jobs []job
	if *workloadName != "" {
		jobs = []job{{*workloadName, *trace == 1}}
	} else {
		for _, w := range spec.Workloads {
			jobs = append(jobs, job{w.Name, false}, job{w.Name, true})
		}
	}
	status := 0
	var last *record
	for _, j := range jobs {
		var rec *record
		specs := spec.EndToEnd
		if j.trace {
			specs = spec.PerLayer
			rec, err = runTraced(ctx, cfg, j.workload)
		} else {
			rec, err = runEndToEnd(ctx, cfg, j.workload)
		}
		if err != nil {
			return fatal(fmt.Errorf("%s: %w", j.workload, err))
		}
		rec.print(os.Stdout, specs)
		if err := rec.appendTo(*out); err != nil {
			return fatal(err)
		}
		if !rec.Correct {
			status = 1
		}
		last = rec
	}
	// The driver reads the last line of one run's output.
	fmt.Println(last.resultLine())
	return status
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 1
}
