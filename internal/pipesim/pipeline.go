package pipesim

import "fmt"

// Schedule selects the pipeline-parallel execution order.
type Schedule int

// Pipeline schedules.
const (
	// GPipe runs all microbatch forwards, then all backwards; every stage
	// buffers every microbatch's activations at the flush point.
	GPipe Schedule = iota
	// OneFOneB interleaves one forward with one backward after warm-up,
	// bounding stage s's buffered microbatches to (stages − s).
	OneFOneB
)

// String implements fmt.Stringer.
func (s Schedule) String() string {
	switch s {
	case GPipe:
		return "GPipe"
	case OneFOneB:
		return "1F1B"
	default:
		return fmt.Sprintf("Schedule(%d)", int(s))
	}
}

// PipelineConfig describes one pipeline-parallel setup.
type PipelineConfig struct {
	Stages       int
	MicroBatches int
	Schedule     Schedule
}

// Validate checks the configuration.
func (c PipelineConfig) Validate() error {
	if c.Stages <= 0 {
		return fmt.Errorf("pipesim: %d pipeline stages", c.Stages)
	}
	if c.MicroBatches <= 0 {
		return fmt.Errorf("pipesim: %d microbatches", c.MicroBatches)
	}
	if c.Schedule != GPipe && c.Schedule != OneFOneB {
		return fmt.Errorf("pipesim: unknown schedule %v", c.Schedule)
	}
	return nil
}

// PartitionLayers splits n layers into the pipeline's stages as evenly as
// possible (earlier stages take the remainder, Megatron's convention).
// The result holds each stage's layer count and sums to n.
func (c PipelineConfig) PartitionLayers(n int) ([]int, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if n < c.Stages {
		return nil, fmt.Errorf("pipesim: %d layers across %d stages", n, c.Stages)
	}
	per, rem := n/c.Stages, n%c.Stages
	out := make([]int, c.Stages)
	for i := range out {
		out[i] = per
		if i < rem {
			out[i]++
		}
	}
	return out, nil
}
