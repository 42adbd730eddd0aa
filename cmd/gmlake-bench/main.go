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
//	gmlake-bench -experiment figure14 -csv out/
//
// Each experiment prints the same rows or series the paper reports, with the
// paper's expected values in the notes. Runs are deterministic: the same
// seed replays identical allocation streams, and because experiment cells
// share nothing and join by index, -parallel changes only wall-clock time —
// the rendered tables are byte-identical at any worker count.
//
// With -csv, the memory timelines behind Figures 5 and 14 also go to
// <dir>/<id>_<name>.csv, one "seconds,active_bytes,reserved_bytes" row per
// sample in simulated time.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
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
		csvDir   = flag.String("csv", "", "also write each table's memory timelines to this directory as <id>_<name>.csv")
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
	// A device of no bytes, or of more bytes than an int64 holds, panics
	// deep inside a cell; a step budget of none renders empty sweeps, and a
	// maximum below the minimum silently lowers the minimum. All are usage
	// errors, caught before any output.
	for _, f := range []struct {
		name string
		v    int64
	}{{"capacity-gb", *capacity}, {"min-steps", int64(*minSteps)}, {"max-steps", int64(*maxSteps)}} {
		if f.v < 1 {
			usage(fmt.Errorf("-%s must be at least 1, got %d", f.name, f.v))
		}
	}
	if *capacity > math.MaxInt64/sim.GiB {
		usage(fmt.Errorf("-capacity-gb %d does not fit in bytes", *capacity))
	}
	if *maxSteps < *minSteps {
		usage(fmt.Errorf("-max-steps %d is below -min-steps %d", *maxSteps, *minSteps))
	}
	if *csvDir != "" {
		if fi, err := os.Stat(*csvDir); err != nil || !fi.IsDir() {
			usage(fmt.Errorf("-csv %s is not a directory", *csvDir))
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
			if *csvDir == "" {
				continue
			}
			if err := writeCSV(w, *csvDir, t); err != nil {
				fmt.Fprintln(os.Stderr, "gmlake-bench:", err)
				os.Exit(1)
			}
		}
		//lint:ignore wallclock real elapsed time for operator progress, outside simulated time
		fmt.Fprintf(w, "(%s completed in %s)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}

// writeCSV writes each of t's timelines to dir/<id>_<name>.csv, in name
// order, and reports each file on w.
func writeCSV(w io.Writer, dir string, t *harness.Table) error {
	names := make([]string, 0, len(t.Timelines))
	for name := range t.Timelines {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tl := t.Timelines[name]
		path := filepath.Join(dir, t.ID+"_"+name+".csv")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		err = tl.WriteCSV(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s (%d samples, peak active %.1f GB, peak reserved %.1f GB)\n",
			path, tl.Len(), float64(tl.PeakActive())/(1<<30), float64(tl.PeakReserved())/(1<<30))
	}
	return nil
}

// usage reports a bad command line: one line on stderr, exit 2.
func usage(err error) {
	fmt.Fprintln(os.Stderr, "gmlake-bench:", err)
	os.Exit(2)
}
