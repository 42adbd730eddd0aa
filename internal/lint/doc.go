// Package lint is the repository's determinism-contract linter: a
// self-contained static-analysis engine on the standard library's
// go/parser, go/ast and go/types (no external dependencies — the module
// has none and must stay that way) that mechanically enforces the
// invariant every result in this repo rests on: a seeded run is
// byte-identical at any parallelism.
//
// That contract was previously enforced only dynamically — differential
// tests, the chaos suite, -race — so a single stray time.Now, an
// unseeded math/rand call, or an unsorted map iteration feeding a report
// would silently break reproducibility until a downstream diff test
// happened to catch it. The linter turns each of those failure modes
// into a build-time error, checked in CI on every push.
//
// # Analyzers
//
//	wallclock    no time.Now / time.Since / time.Sleep (or timers and
//	             tickers) anywhere in simulation code — time flows from
//	             sim.Clock, the virtual clock, so runs replay exactly.
//	globalrand   no top-level math/rand or math/rand/v2 functions: they
//	             draw from a shared, auto-seeded source. Randomness must
//	             flow from sim.RNG or an explicitly seeded source
//	             (rand.New(rand.NewSource(seed)) is allowed).
//	maporder     a `range` over a map whose body appends to a slice
//	             declared outside the loop, or writes output (fmt.Fprint*,
//	             Write*/AddRow/AddNote methods), bakes Go's randomized map
//	             iteration order into the result — the classic
//	             byte-identity killer. The idiomatic fix, collect keys →
//	             sort → re-iterate, is recognized: an append target that
//	             is later passed to a sort.* / slices.Sort* call in the
//	             same function is not flagged.
//	floatorder   `x += v` (or -=, *=, /=) on a float accumulator inside a
//	             map-range body: float addition is not associative, so
//	             iteration order changes the sum. Per-key accumulation
//	             (m[k] += v indexed by the range key, or through a pointer
//	             fetched inside the loop) is order-independent and not
//	             flagged.
//	sealedreport reports and tables must be built from the sealed,
//	             sorted summarize paths (serve's tally.seal,
//	             harness.Table.Render) — passing a raw map to an
//	             fmt print/format call is flagged.
//
// Three interprocedural analyzers sit on top of a whole-program call
// graph (see # Effect engine below):
//
//	wallclockflow a determinism entrypoint must not *transitively* reach
//	             wall-clock time: the per-function wallclock check stops
//	             at one body, this one follows calls, so time.Now cannot
//	             launder through helpers. The diagnostic carries the
//	             shortest call chain (gmlake-lint -why prints it, -json
//	             always includes it).
//	randflow     the same flow property for top-level math/rand(/v2)
//	             draws reachable from an entrypoint.
//	parcapture   a parallel job closure — one submitted to
//	             internal/runner's pool (runner.Do, runner.Collect) or
//	             launched with `go` — must not write a variable captured
//	             from an enclosing scope or at package level unless every
//	             write is discriminated by the job's own index
//	             (out[i] = ..., or the per-iteration loop variable for a
//	             `go` inside for/range). Map writes are never exempt:
//	             concurrent map writes race regardless of key. The
//	             interprocedural half also flags job closures whose
//	             callees transitively write package-level state.
//
// The engine itself contributes one more check, ignorecheck, which
// validates suppression directives (see below): a malformed directive,
// one naming an unknown analyzer, or one that suppresses nothing is
// itself a diagnostic, so stale suppressions cannot accumulate.
//
// # Effect engine
//
// BuildCallGraph constructs a static may-call graph over all loaded
// packages, one node per declared function, method, or function literal.
// Any use of an identifier that resolves to a module function — a direct
// call, a method call through a concrete receiver, a method value, a
// deferred or go-launched call, or passing the function as a value —
// creates an edge. Leaf facts (a wall-clock call, a top-level math/rand
// draw, an assignment whose target resolves to a package-level variable)
// are seeded at the functions that contain them and propagated to all
// transitive callers by a per-effect breadth-first pass, which terminates
// on recursion and cycles and records, for every tainted function, the
// shortest call chain to a culprit.
//
// The flow analyzers report at a fixed set of entrypoint roots — the
// functions whose byte-identity the paper's results rest on:
//
//	serve.Serve, serve.ServeCluster, harness.Env.RunExperiment,
//	core.Allocator.Alloc, core.Allocator.Free, reqtrace.Trace.Replay
//
// plus any function whose doc comment carries a //lint:entrypoint
// directive.
//
// Conservative-resolution caveats — the graph is deliberately
// under-approximate so it never reports a false chain:
//
//   - Calls through function-typed variables, parameters, fields, or
//     returned closures create no edge at the call site. Referencing the
//     function to *store or pass* it does create an edge, so a tainted
//     function handed to a combinator still taints the passer.
//   - Interface method calls create no edge (no class-hierarchy
//     analysis); only methods invoked through concrete receivers are
//     resolved. A method of an instantiated generic type and an
//     instantiated generic function resolve to their origin declaration
//     (container.Heap[T].Push for every T), so effects behind generic
//     containers are seen.
//   - Package-level variable initializer expressions run before main and
//     are not part of any function body, so effects inside them are not
//     seeded (they cannot vary between runs of a seeded binary).
//   - Writes through pointers passed into a callee are attributed to the
//     function containing the assignment, not to the caller that handed
//     over the pointer.
//
// # Suppression
//
// A finding that is a deliberate, justified exception is silenced with a
// directive comment on the offending line or on the line directly above
// it:
//
//	//lint:ignore wallclock real elapsed time shown to the operator
//
// The first field names the analyzer (comma-separate several); everything
// after it is the mandatory reason. Unused or malformed directives are
// errors — suppressions must always pay rent.
//
// # Running
//
// cmd/gmlake-lint wires the suite as a CLI (`go run ./cmd/gmlake-lint
// ./...`, -json for tooling, -why to print each finding's call chain;
// exits nonzero on findings), CI runs it on every push, and
// TestLintCleanTree pins the tree itself to zero diagnostics so a
// violation can never land silently. Each package is parsed and
// type-checked exactly once per process — the Loader memoizes by
// directory — and the call graph is built once per Run and shared by
// every graph-consuming analyzer.
package lint
