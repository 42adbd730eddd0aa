// Package metrics aggregates the paper's measurement vocabulary: memory
// timelines (Figures 5 and 14), peak utilization/fragmentation (every other
// figure) and throughput.
package metrics

import (
	"fmt"
	"io"
	"time"
)

// Sample is one point of a memory timeline.
type Sample struct {
	T        time.Duration
	Active   int64
	Reserved int64
}

// Timeline is an append-only series of memory samples.
type Timeline struct {
	samples []Sample
}

// Record appends a sample.
func (tl *Timeline) Record(t time.Duration, active, reserved int64) {
	tl.samples = append(tl.samples, Sample{T: t, Active: active, Reserved: reserved})
}

// Len returns the number of samples.
func (tl *Timeline) Len() int { return len(tl.samples) }

// PeakActive returns the maximum active bytes seen.
func (tl *Timeline) PeakActive() int64 {
	var peak int64
	for _, s := range tl.samples {
		if s.Active > peak {
			peak = s.Active
		}
	}
	return peak
}

// PeakReserved returns the maximum reserved bytes seen.
func (tl *Timeline) PeakReserved() int64 {
	var peak int64
	for _, s := range tl.samples {
		if s.Reserved > peak {
			peak = s.Reserved
		}
	}
	return peak
}

// WriteCSV emits "seconds,active_bytes,reserved_bytes" rows.
func (tl *Timeline) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "seconds,active_bytes,reserved_bytes"); err != nil {
		return err
	}
	for _, s := range tl.samples {
		if _, err := fmt.Fprintf(w, "%.3f,%d,%d\n", s.T.Seconds(), s.Active, s.Reserved); err != nil {
			return err
		}
	}
	return nil
}

// Run summarizes one workload execution on one allocator, the row format
// shared by every experiment table.
type Run struct {
	Allocator    string
	PeakActive   int64
	PeakReserved int64
	Steps        int
	Samples      int           // total samples processed
	Elapsed      time.Duration // virtual time
	OOM          bool          // the run died with out-of-memory
	AllocCount   int64
	FreeCount    int64
}

// Utilization returns peak active / peak reserved (paper §5.1).
func (r Run) Utilization() float64 {
	if r.PeakReserved == 0 {
		return 1
	}
	return float64(r.PeakActive) / float64(r.PeakReserved)
}

// Fragmentation returns 1 - Utilization.
func (r Run) Fragmentation() float64 { return 1 - r.Utilization() }

// Throughput returns samples per virtual second.
func (r Run) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Samples) / r.Elapsed.Seconds()
}

// MemReductionRatio computes the paper's §5.1 aggregate
// (Σ baseline reserved − Σ treatment reserved) / Σ baseline reserved over
// paired runs. Runs where either side OOM'd are skipped, as the paper can
// only compare completed workloads.
func MemReductionRatio(baseline, treatment []Run) float64 {
	if len(baseline) != len(treatment) {
		panic("metrics: mismatched run lists")
	}
	var base, treat int64
	for i := range baseline {
		if baseline[i].OOM || treatment[i].OOM {
			continue
		}
		base += baseline[i].PeakReserved
		treat += treatment[i].PeakReserved
	}
	if base == 0 {
		return 0
	}
	return float64(base-treat) / float64(base)
}
