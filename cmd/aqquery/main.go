// Command aqquery answers one dynamic access query from the command line
// and emits the per-zone measures as CSV plus a summary on stderr. It can
// pre-process a city from a preset or load a saved engine snapshot
// (see aqquery -save / -load), making the offline/online split of the
// paper's architecture tangible:
//
//	aqquery -city coventry -scale 0.2 -save /tmp/cov.snap   # offline once
//	aqquery -load /tmp/cov.snap -category school -budget 0.05 > zones.csv
//
// With -server it becomes a client of a running aqserver instead: the
// query posts to /v1/query with the -city flag as the tenant name, so one
// CLI drives any city a multi-city server hosts:
//
//	aqquery -server http://127.0.0.1:8321 -city birmingham -category school
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"accessquery/internal/access"
	"accessquery/internal/bank"
	"accessquery/internal/buildinfo"
	"accessquery/internal/core"
	"accessquery/internal/fault"
	"accessquery/internal/gtfs"
	"accessquery/internal/obs"
	"accessquery/internal/serve"
	"accessquery/internal/synth"
)

// flagWasSet reports whether the named flag appeared on the command line,
// distinguishing an explicit value from its default.
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("aqquery: ")
	var (
		server     = flag.String("server", "", "base URL of a running aqserver; queries go to its /v1/query instead of a local engine")
		cityName   = flag.String("city", "coventry", "city preset, or tenant name with -server (ignored with -load)")
		scale      = flag.Float64("scale", 0.2, "city scale factor (ignored with -load)")
		load       = flag.String("load", "", "load a saved engine snapshot instead of generating")
		save       = flag.String("save", "", "save the engine snapshot after pre-processing and exit")
		category   = flag.String("category", "school", "POI category: school|hospital|vax_center|job_center")
		cost       = flag.String("cost", "JT", "access cost: JT or GAC")
		budget     = flag.Float64("budget", 0.05, "labeling budget in (0, 1]")
		model      = flag.String("model", "MLP", "SSR model: OLS|MLP|MT|COREG|GNN")
		sampling   = flag.String("sampling", "random", "labeled-set sampling: random|coverage|stratified|cluster")
		useBank    = flag.Bool("bank", true, "route labeling through a process-local label bank (visible in -explain; results identical either way)")
		workers    = flag.Int("workers", 1, "parallel labeling workers")
		par        = flag.Int("parallelism", runtime.GOMAXPROCS(0), "worker pool for pre-processing and the feature stage (results identical at any setting)")
		seed       = flag.Int64("seed", 1, "random seed")
		od         = flag.Bool("od", false, "learn at OD granularity instead of origin level")
		deadline   = flag.Duration("deadline", 0, "overall query deadline; under pressure the run degrades (smaller budget, OLS fallback, partial result) instead of failing (0 = none)")
		faultSpec  = flag.String("fault-spec", "", "deterministic fault injection for chaos runs, e.g. \"seed=42;spq:fail=0.05\"")
		scenario   = flag.String("scenario", "", "with -server: apply a JSON mutation batch to the city's scenario and exit ('@file' reads it from a file)")
		scenStatus = flag.Bool("scenario-status", false, "with -server: print the city's applied scenario deltas and exit")
		scenRevert = flag.Bool("scenario-revert", false, "with -server: revert the city to its pre-scenario baseline and exit")
		sloStatus  = flag.Bool("slo-status", false, "with -server: print each tenant's SLO burn-rate table and exit")
		snapList   = flag.Bool("snapshots", false, "with -server: list the city's snapshot store and exit")
		snapSave   = flag.String("snapshot-save", "", "with -server: save the city's serving engine into the server's snapshot store under this id ('auto' picks {city}-e{epoch}) and exit")
		snapAct    = flag.String("snapshot-activate", "", "with -server: hot-swap the city onto this stored snapshot id and exit")

		metrics = flag.Bool("metrics", false, "dump process metrics (stage latencies, SPQs) to stderr after the run")
		explain = flag.Bool("explain", false, "print the per-stage execution report (TODAM reduction, SPQs, cache hits, model convergence) to stderr")
		version = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "aqquery")
		return
	}
	buildinfo.Register()
	if *scenario != "" || *scenStatus || *scenRevert {
		if *server == "" {
			log.Fatal("-scenario, -scenario-status, and -scenario-revert require -server")
		}
		city := ""
		if flagWasSet("city") {
			city = *cityName
		}
		if err := runScenario(*server, city, *scenario, *scenStatus, *scenRevert); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *sloStatus {
		if *server == "" {
			log.Fatal("-slo-status requires -server")
		}
		if err := runSLOStatus(*server); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *snapList || *snapSave != "" || *snapAct != "" {
		if *server == "" {
			log.Fatal("-snapshots, -snapshot-save, and -snapshot-activate require -server")
		}
		city := ""
		if flagWasSet("city") {
			city = *cityName
		}
		if err := runSnapshots(*server, city, *snapSave, *snapAct); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *server != "" {
		req := serve.Request{
			Category: *category,
			Cost:     *cost,
			Budget:   *budget,
			Model:    *model,
			Seed:     *seed,
		}
		// Only an explicit -city travels; otherwise the server's default
		// tenant answers, whatever it is named.
		if flagWasSet("city") {
			req.City = *cityName
		}
		if err := runRemote(*server, req, *deadline, *metrics); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *faultSpec != "" {
		spec, err := fault.ParseSpec(*faultSpec)
		if err != nil {
			log.Fatalf("bad -fault-spec: %v", err)
		}
		fault.Enable(fault.New(spec))
		fmt.Fprintf(os.Stderr, "fault injection enabled: %s\n", *faultSpec)
	}
	engine, err := buildEngine(*load, *cityName, *scale, *par)
	if err != nil {
		log.Fatal(err)
	}
	if *save != "" {
		if err := engine.SaveSnapshot(*save); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "saved snapshot to %s (prep took %v)\n", *save, engine.PrepDuration)
		return
	}
	pois := core.POIsOf(engine.City, synth.POICategory(*category))
	if len(pois) == 0 {
		log.Fatalf("unknown or empty POI category %q", *category)
	}
	costKind := access.JourneyTime
	if strings.EqualFold(*cost, "GAC") {
		costKind = access.Generalized
	}
	q := core.Query{
		POIs:        pois,
		Cost:        costKind,
		Budget:      *budget,
		Model:       core.ModelKind(strings.ToUpper(*model)),
		Sampling:    core.SamplingStrategy(strings.ToLower(*sampling)),
		Workers:     *workers,
		Parallelism: *par,
		Seed:        *seed,
	}
	if *useBank && !*od {
		// One-shot CLI runs see a cold bank (everything deposits, nothing
		// drains), but the -explain bank line shows the same accounting a
		// warm server run would.
		q.Bank = bank.New(bank.Config{}).Segment(engine.City.Name, 0)
	}
	var res *core.Result
	var tr *obs.Trace
	if *od {
		if *explain {
			fmt.Fprintln(os.Stderr, "note: -explain traces the origin-level pipeline; -od runs are not traced")
		}
		if *deadline > 0 {
			fmt.Fprintln(os.Stderr, "note: -deadline applies to origin-level runs; -od runs ignore it")
		}
		res, err = engine.RunOD(q)
	} else {
		ctx := context.Background()
		if *deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *deadline)
			defer cancel()
		}
		if *explain {
			tr = obs.NewTrace()
			ctx = obs.WithTrace(ctx, tr)
		}
		res, err = engine.RunContext(ctx, q)
	}
	if err != nil {
		log.Fatal(err)
	}
	if res.Degraded != nil {
		fmt.Fprintf(os.Stderr, "warning: degraded answer (%s): %s\n",
			res.Degraded, strings.Join(res.Degraded.Reasons, "; "))
	}
	if err := res.WriteCSV(os.Stdout, engine); err != nil {
		log.Fatal(err)
	}
	s := res.Summarize()
	fmt.Fprintf(os.Stderr,
		"%s %s %s budget=%.0f%%: %d/%d zones (%d labeled), mean %s %.1f min, fairness %.3f, gini %.3f, %d SPQs in %v\n",
		engine.City.Name, *category, costKind, *budget*100,
		s.ValidZones, s.Zones, s.LabeledZones, costKind, s.MeanMAC/60,
		s.Fairness, s.Gini, s.SPQs, res.Timing.Total())
	if tr != nil {
		fmt.Fprintln(os.Stderr)
		core.Explain(res, tr.Summary()).WriteText(os.Stderr)
	}
	if *metrics {
		fmt.Fprintln(os.Stderr)
		if err := obs.WritePrometheus(os.Stderr); err != nil {
			log.Fatal(err)
		}
	}
}

// buildEngine loads a snapshot or generates and pre-processes a city with
// the given worker-pool size.
func buildEngine(load, cityName string, scale float64, parallelism int) (*core.Engine, error) {
	if load != "" {
		return core.LoadEngine(load)
	}
	var cfg synth.Config
	switch strings.ToLower(cityName) {
	case "birmingham":
		cfg = synth.Birmingham()
	case "coventry":
		cfg = synth.Coventry()
	default:
		return nil, fmt.Errorf("unknown city %q", cityName)
	}
	cfg = synth.Scaled(cfg, scale)
	city, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	return core.NewEngine(city, core.EngineOptions{
		Interval:    gtfs.Interval{Start: 7 * 3600, End: 9 * 3600, Day: time.Tuesday, Label: "weekday AM peak"},
		Parallelism: parallelism,
	})
}
