// Command gmlake-bench regenerates the paper's evaluation tables and
// figures.
//
// Usage:
//
//	gmlake-bench -list
//	gmlake-bench -experiment figure10
//	gmlake-bench -experiment all -out results.txt
//	gmlake-bench -experiment headline -parallel 8
//	gmlake-bench -experiment figure10 -cpuprofile cpu.out -memprofile mem.out
//
// Each experiment prints the same rows or series the paper reports, with the
// paper's expected values in the notes. Runs are deterministic: the same
// seed replays identical allocation streams, and because experiment cells
// share nothing and join by index, -parallel changes only wall-clock time —
// the rendered tables are byte-identical at any worker count.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"repro/cmd/internal/profile"
	"repro/internal/conf"
	"repro/internal/harness"
	"repro/internal/sim"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list experiment ids and exit")
		exp      = flag.String("experiment", "all", "experiment id (or 'all')")
		out      = flag.String("out", "", "also write results to this file")
		seed     = flag.Uint64("seed", 7, "workload generator seed")
		capacity = flag.Int64("capacity-gb", 80, "per-GPU memory in GiB")
		minSteps = flag.Int("min-steps", 40, "minimum training steps per run")
		maxSteps = flag.Int("max-steps", 200, "maximum training steps per run")
		// The serving knobs the experiments share with gmlake-serve are the
		// same keys, with the same values, docs and cross-key rules.
		keys = conf.RegisterFlags(flag.CommandLine, "parallel", "trace_in", "trace_scale", "exact_samples")
		prof = profile.Register()
	)
	flag.Parse()
	cfg, err := keys.Parse("")
	if err != nil {
		usage(err)
	}
	// A device of no bytes panics deep inside a cell, and a step budget of
	// none renders empty sweeps: both are usage errors, caught before any
	// output.
	for _, f := range []struct {
		name string
		v    int64
	}{{"capacity-gb", *capacity}, {"min-steps", int64(*minSteps)}, {"max-steps", int64(*maxSteps)}} {
		if f.v < 1 {
			usage(fmt.Errorf("-%s must be at least 1, got %d", f.name, f.v))
		}
	}
	// Ids match exactly, as RunExperiment matches them: an id that passes
	// here must not render nothing there.
	ids := harness.Experiments
	if *exp != "all" {
		if !slices.Contains(ids, *exp) {
			usage(fmt.Errorf("unknown experiment %q (use -list)", *exp))
		}
		ids = []string{*exp}
	}

	if *list {
		for _, id := range harness.Experiments {
			fmt.Println(id)
		}
		return
	}

	env := harness.NewEnv()
	env.Seed = *seed
	env.Capacity = *capacity * sim.GiB
	env.TotalSteps = *minSteps
	env.MaxSteps = *maxSteps
	env.Parallelism = cfg.Parallelism
	env.TraceIn = cfg.TraceIn
	env.TraceScale = cfg.TraceScale
	env.ExactSamples = cfg.Cluster.Server.ExactSamples

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gmlake-bench:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	stopProfile, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gmlake-bench:", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProfile(); err != nil {
			fmt.Fprintln(os.Stderr, "gmlake-bench:", err)
			os.Exit(1)
		}
	}()

	for _, id := range ids {
		// The experiments themselves run on virtual time; this is real
		// elapsed time shown to the operator, not simulation state.
		//lint:ignore wallclock real elapsed time for operator progress, outside simulated time
		start := time.Now()
		tables := env.RunExperiment(id)
		for _, t := range tables {
			t.Render(w)
		}
		//lint:ignore wallclock real elapsed time for operator progress, outside simulated time
		fmt.Fprintf(w, "(%s completed in %s)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}

// usage reports a bad command line: one line on stderr, exit 2.
func usage(err error) {
	fmt.Fprintln(os.Stderr, "gmlake-bench:", err)
	os.Exit(2)
}
