package harness

import "repro/internal/runner"

// The parallel experiment engine. Every experiment declares its cells —
// independent workload × configuration executions, each of which assembles
// its own rig (device, virtual clock, driver, allocator) — and the engine
// runs them on a bounded worker pool, joining results by cell index. Because
// cells share nothing and the join order is fixed, the rendered tables are
// byte-identical whatever Env.Parallelism is; TestExperimentGoldens pins
// that property at Parallelism 1 and 8.

// workers resolves Env.Parallelism (0 = GOMAXPROCS) for the engine.
func (e *Env) workers() int { return runner.Workers(e.Parallelism) }

// runCells executes run over every cell on the engine and returns the
// results in cell order. A panicking cell does not wedge the pool: every
// other cell still runs, and the lowest-index panic is re-raised afterwards
// as a *runner.PanicError so failures stay deterministic.
func runCells[C, R any](e *Env, cells []C, run func(C) R) []R {
	out, err := runner.Collect(e.workers(), len(cells), func(i int) R {
		return run(cells[i])
	})
	if err != nil {
		panic(err)
	}
	return out
}
