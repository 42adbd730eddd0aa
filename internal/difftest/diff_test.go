// Package difftest runs randomized differential tests across every
// allocator in the library: the same synthetic request stream is replayed
// on all of them, and outcomes that must agree (successful completion on an
// amply sized device, identical request-level accounting, no leaks) are
// checked against each other. Shape properties that distinguish the
// allocators (GMLake reserving no more than the baseline on fragmenting
// streams) are asserted in the direction the paper predicts.
package difftest

import (
	"fmt"
	"testing"

	"repro/internal/conf"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/memalloc"
	"repro/internal/optrace"
	"repro/internal/sim"
)

// allAllocators builds one fresh instance of every pooling allocator in
// conf's backend table, each on its own device; native, which holds nothing
// back, is left out.
func allAllocators(capacity int64) map[string]memalloc.Allocator {
	all := map[string]memalloc.Allocator{}
	for _, name := range conf.Backends() {
		if name == "native" {
			continue
		}
		all[name] = buildBackend(name, capacity)
	}
	return all
}

// buildBackend builds conf's backend name on a device of its own.
func buildBackend(name string, capacity int64) memalloc.Allocator {
	drv := cuda.NewDriver(gpu.NewDevice("diff", capacity), sim.NewClock(), sim.DefaultCostModel())
	alloc, err := conf.Config{Backend: name}.Build(drv)
	if err != nil {
		panic(err)
	}
	return alloc
}

// issuedOnce passes calls through to an allocator and fails the test when
// Alloc returns a handle it returned before: CONTRACTS.md A-1 holds because
// no handle is ever issued twice. seen keeps every handle reachable, so a
// reissue cannot hide behind a recycled address.
type issuedOnce struct {
	memalloc.Allocator
	t    *testing.T
	name string
	seen map[*memalloc.Buffer]bool
}

func (o *issuedOnce) Alloc(size int64) (*memalloc.Buffer, error) {
	b, err := o.Allocator.Alloc(size)
	if b != nil {
		if o.seen[b] {
			o.t.Fatalf("%s returned handle %p a second time", o.name, b)
		}
		o.seen[b] = true
	}
	return b, err
}

// genStream builds a random but well-formed alloc/free stream with the
// irregular sizing that provokes fragmentation: sizes are drawn from
// several scales, lifetimes interleave, and everything is freed by the end.
func genStream(seed uint64, ops int, maxLive int64) *optrace.Trace {
	rng := sim.NewRNG(seed)
	t := &optrace.Trace{}
	type liveAlloc struct {
		id   int64
		size int64
	}
	var live []liveAlloc
	var liveBytes int64
	var nextID int64

	for i := 0; i < ops; i++ {
		allocate := rng.Intn(2) == 0 || len(live) == 0
		if liveBytes > maxLive {
			allocate = false
		}
		if allocate {
			// Three size scales: small (sub-2MB), tensor-ish, huge.
			var size int64
			switch rng.Intn(6) {
			case 0:
				size = int64(rng.Intn(int(2*sim.MiB-1))) + 1
			case 5:
				size = int64(rng.Intn(256)+64) * sim.MiB
			default:
				size = int64(rng.Intn(64)+1) * sim.MiB
			}
			size = rng.Jitter(size, 0.3)
			if size <= 0 {
				size = 1
			}
			nextID++
			t.Events = append(t.Events, optrace.Event{Op: optrace.OpAlloc, ID: nextID, Size: size})
			live = append(live, liveAlloc{id: nextID, size: size})
			liveBytes += size
		} else {
			k := rng.Intn(len(live))
			t.Events = append(t.Events, optrace.Event{Op: optrace.OpFree, ID: live[k].id})
			liveBytes -= live[k].size
			live = append(live[:k], live[k+1:]...)
		}
	}
	for _, l := range live {
		t.Events = append(t.Events, optrace.Event{Op: optrace.OpFree, ID: l.id})
	}
	return t
}

// TestDifferentialRandomStreams replays seeded streams on every backend.
// Seeds 1–12 are 600 ops; seed 13 is long enough that every backend issues
// more than the 746 handles of its first six slabs (15 + 31 + 63 + 127 +
// 255 + 255), so a reissue from a later slab, or from a recycled block
// record, fails here too.
func TestDifferentialRandomStreams(t *testing.T) {
	const capacity = 64 * sim.GiB
	const firstSlabs = 746
	for seed := uint64(1); seed <= 13; seed++ {
		ops := 600
		if seed == 13 {
			ops = 3000
		}
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			stream := genStream(seed, ops, 24*sim.GiB)
			if err := stream.Validate(); err != nil {
				t.Fatalf("generator produced invalid stream: %v", err)
			}
			want := stream.Stats()

			results := map[string]memalloc.Stats{}
			allocs := allAllocators(capacity)
			allocs["native"] = buildBackend("native", capacity)
			for name, alloc := range allocs {
				issued := &issuedOnce{Allocator: alloc, t: t, name: name, seen: map[*memalloc.Buffer]bool{}}
				if err := optrace.Replay(stream, issued); err != nil {
					t.Fatalf("%s: replay failed on an amply sized device: %v", name, err)
				}
				if n := len(issued.seen); seed == 13 && n <= firstSlabs {
					t.Fatalf("%s issued %d handles, want more than %d", name, n, firstSlabs)
				}
				st := alloc.Stats()
				if st.Active != 0 {
					t.Fatalf("%s: %d bytes active after full free", name, st.Active)
				}
				if st.AllocCount != want.Allocs || st.FreeCount != want.Frees {
					t.Fatalf("%s: served %d/%d, stream has %d/%d",
						name, st.AllocCount, st.FreeCount, want.Allocs, want.Frees)
				}
				if st.PeakActive > st.PeakReserved {
					t.Fatalf("%s: peak active %d above peak reserved %d", name, st.PeakActive, st.PeakReserved)
				}
				results[name] = st
			}

			// Every allocator saw identical requests, so peak active can
			// differ only by rounding policy — never by more than 15%.
			base := results["caching"].PeakActive
			for name, st := range results {
				if diff := st.PeakActive - base; diff > base/7 || diff < -base/7 {
					t.Fatalf("%s peak active %d far from caching %d", name, st.PeakActive, base)
				}
			}

			// The paper's direction: GMLake never reserves meaningfully
			// more than the splitting baseline on irregular streams.
			if g, c := results["gmlake"].PeakReserved, results["caching"].PeakReserved; g > c+c/20 {
				t.Fatalf("gmlake reserved %d exceeds caching %d by >5%%", g, c)
			}

			// Structural invariant checks on every allocator that exposes
			// them (every pooling backend does): no overlapping blocks, tiling
			// intact, free-index state consistent after the full stream.
			fresh := allAllocators(capacity)
			for name, alloc := range fresh {
				chk, ok := alloc.(interface{ CheckInvariants() error })
				if !ok {
					t.Fatalf("%s does not expose CheckInvariants", name)
				}
				if err := optrace.Replay(stream, alloc); err != nil {
					t.Fatalf("%s: replay for invariant check: %v", name, err)
				}
				if err := chk.CheckInvariants(); err != nil {
					t.Fatalf("%s invariants: %v", name, err)
				}
			}
		})
	}
}

// TestDifferentialTightDevice replays fragmenting streams on a tight device:
// allocators may legitimately OOM, but they must do so cleanly — accounting
// intact, no partial state, and EmptyCache still functional.
func TestDifferentialTightDevice(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		stream := genStream(seed, 400, 6*sim.GiB)
		for name, alloc := range allAllocators(4 * sim.GiB) {
			err := optrace.Replay(stream, alloc)
			st := alloc.Stats()
			if err != nil {
				// OOM is fine; corruption is not.
				if st.Active < 0 || st.Reserved < 0 {
					t.Fatalf("%s seed %d: negative accounting after OOM", name, seed)
				}
				alloc.EmptyCache()
				continue
			}
			if st.Active != 0 {
				t.Fatalf("%s seed %d: leak without OOM", name, seed)
			}
		}
	}
}
