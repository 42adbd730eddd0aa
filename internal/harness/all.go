package harness

// An experiment is one runnable id and its runner.
type experiment struct {
	id  string
	run func(*Env) []*Table
}

// experiments returns the one ordered table of experiments; Experiments
// and RunExperiment derive from it. It is built in a function body
// rather than a package-level initializer so that the determinism linter's
// call graph, which resolves function references only inside bodies, still
// sees RunExperiment reach every runner.
func experiments() []experiment {
	one := func(run func(*Env) *Table) func(*Env) []*Table {
		return func(e *Env) []*Table { return []*Table{run(e)} }
	}
	return []experiment{
		{"table1", one((*Env).Table1)},
		{"figure3", one((*Env).Figure3)},
		{"figure4", one((*Env).Figure4)},
		{"figure5", one((*Env).Figure5)},
		{"figure6", one((*Env).Figure6)},
		{"motivation", one((*Env).Motivation)},
		{"figure10", (*Env).Figure10},
		{"figure11", (*Env).Figure11},
		{"figure12", one((*Env).Figure12)},
		{"figure13", (*Env).Figure13},
		{"figure14", one((*Env).Figure14)},
		{"headline", one((*Env).Headline)},
		{"extended", one((*Env).Extended)},
		{"ablations", one((*Env).Ablations)},
		{"cluster", one((*Env).ClusterExperiment)},
		{"zero", one((*Env).ZeROExperiment)},
		{"topology", one((*Env).TopologyExperiment)},
		{"recompute", one((*Env).RecomputeExperiment)},
		{"offload", one((*Env).OffloadExperiment)},
		{"streams", one((*Env).StreamsExperiment)},
		{"serving", one((*Env).ServingExperiment)},
		{"servemix", one((*Env).ServeMixExperiment)},
		{"servecluster", (*Env).ServeClusterExperiment},
		{"serveelastic", (*Env).ServeElasticExperiment},
		{"servetrace", (*Env).ServeTraceExperiment},
		{"servefault", (*Env).ServeFaultExperiment},
		{"servesession", one((*Env).ServeSessionExperiment)},
		{"fragindex", one((*Env).FragIndexExperiment)},
		{"pipefrag", one((*Env).PipelineExperiment)},
	}
}

// Experiments names the experiments runnable via RunExperiment, in
// presentation order.
var Experiments = func() (ids []string) {
	for _, x := range experiments() {
		ids = append(ids, x.id)
	}
	return ids
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
