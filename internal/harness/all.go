package harness

// An experiment is one runnable id, the claim it serves and its runner.
// A claim opens with a paper anchor ("Table 1", "Figure 10", "§2.2",
// "abstract") or "beyond: " and the north-star aim or ROADMAP item it
// serves, then a colon and the claim itself; a pkg.TestName in it names
// the test that ties the table to that claim. TestEveryExperimentClaims
// checks the form and that each named test exists.
type experiment struct {
	id    string
	claim string
	run   func(*Env) []*Table
}

// experiments returns the one ordered table of experiments; Experiments,
// Claims and RunExperiment derive from it. It is built in a function body
// rather than a package-level initializer so that the determinism linter's
// call graph, which resolves function references only inside bodies, still
// sees RunExperiment reach every runner.
func experiments() []experiment {
	one := func(run func(*Env) *Table) func(*Env) []*Table {
		return func(e *Env) []*Table { return []*Table{run(e)} }
	}
	return []experiment{
		{"table1", "Table 1: VMM allocation of 2 GB costs far more than one cudaMalloc, most at small chunks", one((*Env).Table1)},
		{"figure3", "Figure 3: caching-allocator utilization falls as strategies combine (P to PLRO)", one((*Env).Figure3)},
		{"figure4", "Figure 4: caching-allocator utilization falls as the GPU count grows; each rank holds its ZeRO-3 shards (workload.TestTrainerPersistentMatchesZeRO3)", one((*Env).Figure4)},
		{"figure5", "Figure 5: LoRA and recomputation make allocations more frequent and smaller; checkpointing cuts the trainer's activations (workload.TestTrainerCheckpointingCutsActivations)", one((*Env).Figure5)},
		{"figure6", "Figure 6: VMM allocation time grows as the chunk size shrinks", one((*Env).Figure6)},
		{"motivation", "§2.2: the native allocator is far slower than the caching allocator", one((*Env).Motivation)},
		{"figure10", "Figure 10: GMLake cuts reserved memory under every strategy combination", (*Env).Figure10},
		{"figure11", "Figure 11: GMLake holds utilization from 1 to 16 GPUs at comparable throughput", (*Env).Figure11},
		{"figure12", "Figure 12: GMLake's saving holds on FSDP, DeepSpeed and Colossal-AI", one((*Env).Figure12)},
		{"figure13", "Figure 13: GMLake runs batch sizes at which the caching allocator runs out of memory", (*Env).Figure13},
		{"figure14", "Figure 14: GMLake's reserved memory converges to its active memory", one((*Env).Figure14)},
		{"headline", "abstract: 9.2 GB average and 25 GB peak reserved-memory saving, 15% to 33% less fragmentation", one((*Env).Headline)},
		{"extended", "§6: stitching against expandable segments and copy-based compaction", one((*Env).Extended)},
		{"ablations", "beyond: aim 2: each GMLake design choice (split rebind, fragmentation limit, stitched-pool cap) earns its default", one((*Env).Ablations)},
		{"cluster", "beyond: aim 3: a job runs out of memory when its worst rank does, which rank 0 understates", one((*Env).ClusterExperiment)},
		{"streams", "beyond: aim 3: cross-stream frees defer, and GMLake reserves less than caching when buffers are shared (harness.TestStreamsExperimentShape)", one((*Env).StreamsExperiment)},
		{"serving", "Table 3: in-tensor paging and pool-level stitching work at different scopes", one((*Env).ServingExperiment)},
		{"servemix", "beyond: north star: per-SLO-class latency and KV occupancy of each serving policy", one((*Env).ServeMixExperiment)},
		{"servecluster", "beyond: north star: dispatch policies and priority aging over a multi-replica fleet", (*Env).ServeClusterExperiment},
		{"serveelastic", "beyond: north star: static, autoscaled and work-stealing fleets under overload", (*Env).ServeElasticExperiment},
		{"servetrace", "beyond: north star: a captured trace replays byte-identically, and a fitted mix comes close", (*Env).ServeTraceExperiment},
		{"servefault", "beyond: north star: goodput and availability under replica crashes and recovery policies", (*Env).ServeFaultExperiment},
		{"servesession", "beyond: north star: session affinity turns KV prefix reuse into TTFT", one((*Env).ServeSessionExperiment)},
		{"fragindex", "beyond: aim 4: fragmentation indices show why the caching allocator's free memory is unusable", one((*Env).FragIndexExperiment)},
		{"pipefrag", "beyond: aim 3: GMLake's worst pipeline stage reserves less than caching's under GPipe and 1F1B (harness.TestPipelineExperimentShape)", one((*Env).PipelineExperiment)},
	}
}

// Experiments names the experiments runnable via RunExperiment, in
// presentation order, and Claims maps each id to the claim it serves.
var Experiments, Claims = func() (ids []string, claims map[string]string) {
	claims = map[string]string{}
	for _, x := range experiments() {
		ids = append(ids, x.id)
		claims[x.id] = x.claim
	}
	return ids, claims
}()

// RunExperiment executes one experiment by id and returns its tables, or
// nil for an unknown id.
func (e *Env) RunExperiment(id string) []*Table {
	for _, x := range experiments() {
		if x.id == id {
			return x.run(e)
		}
	}
	return nil
}
