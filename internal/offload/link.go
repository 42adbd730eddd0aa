// Package offload simulates the host-device transfer path used by the
// paper's "O" strategy (ZeRO-Offload, §2.3): a PCIe link cost model, an
// asynchronous copy engine running on dedicated streams, and a ZeRO-Offload
// style CPU optimizer with a bucketed D2H → CPU-Adam → H2D pipeline.
//
// Offloading trades GPU memory for transfer time, and — what matters to this
// repository — replaces a few long-lived residents with a steady churn of
// staging allocations and frees. That churn is one of the irregular request
// streams that fragment the baseline caching allocator (Observation 1); the
// optimizer here generates it mechanistically rather than statistically.
package offload

import (
	"time"

	"repro/internal/sim"
)

// Link prices one direction of a host-device interconnect. Bandwidths are
// effective (post-protocol-overhead) GiB/s; Latency is the fixed per-transfer
// submission cost.
type Link struct {
	// PinnedH2D and PinnedD2H are DMA bandwidths from/to page-locked host
	// memory, the fast path every serious offload engine uses.
	PinnedH2D float64
	PinnedD2H float64

	// PageableH2D and PageableD2H go through an internal staging copy and
	// run several times slower.
	PageableH2D float64
	PageableD2H float64

	// Latency is charged once per transfer regardless of size.
	Latency time.Duration
}

// DefaultPCIe returns a PCIe 4.0 x16 link as found on the paper's A100
// testbed: ~25 GiB/s effective pinned, ~6 GiB/s pageable, ~10 µs submission.
func DefaultPCIe() *Link {
	return &Link{
		PinnedH2D:   25,
		PinnedD2H:   25,
		PageableH2D: 6,
		PageableD2H: 6,
		Latency:     10 * time.Microsecond,
	}
}

// NVLinkC2C returns a Grace-Hopper-class coherent link (~450 GiB/s), for
// sensitivity sweeps over much faster host connections.
func NVLinkC2C() *Link {
	return &Link{
		PinnedH2D:   450,
		PinnedD2H:   450,
		PageableH2D: 450,
		PageableD2H: 450,
		Latency:     2 * time.Microsecond,
	}
}

// H2D returns the transfer time of size bytes host-to-device.
func (l *Link) H2D(size int64, pinned bool) time.Duration {
	bw := l.PageableH2D
	if pinned {
		bw = l.PinnedH2D
	}
	return l.Latency + transferTime(size, bw)
}

// D2H returns the transfer time of size bytes device-to-host.
func (l *Link) D2H(size int64, pinned bool) time.Duration {
	bw := l.PageableD2H
	if pinned {
		bw = l.PinnedD2H
	}
	return l.Latency + transferTime(size, bw)
}

func transferTime(size int64, gibPerSec float64) time.Duration {
	if size <= 0 || gibPerSec <= 0 {
		return 0
	}
	sec := float64(size) / (gibPerSec * float64(sim.GiB))
	return time.Duration(sec * float64(time.Second))
}
