// Package compact is the compaction-based defragmenting allocator of the
// paper's §6 comparison: internal/expandable's arena with compaction on
// (see that package for the design and its cost model).
package compact

import (
	"repro/internal/cuda"
	"repro/internal/expandable"
)

// Allocator is the compaction allocator.
type Allocator = expandable.Allocator

// New returns a compaction allocator over driver.
func New(driver *cuda.Driver) *Allocator { return expandable.NewCompact(driver) }
