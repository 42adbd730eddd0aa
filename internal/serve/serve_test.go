package serve

import (
	"testing"

	"repro/internal/caching"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/memalloc"
	"repro/internal/model"
	"repro/internal/sim"
)

func newServeAlloc(capacity int64) memalloc.Allocator {
	clock := sim.NewClock()
	dev := gpu.NewDevice("t", capacity)
	return caching.New(cuda.NewDriver(dev, clock, sim.DefaultCostModel()))
}

func TestKVBytesPerToken(t *testing.T) {
	got := KVBytesPerToken(model.OPT13B)
	want := int64(2 * 40 * 5120 * 2)
	if got != want {
		t.Fatalf("KVBytesPerToken = %d, want %d", got, want)
	}
}

func TestGenRequestsDeterministicAndInRange(t *testing.T) {
	cfg := DefaultGenConfig()
	a, err := GenRequests(100, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := GenRequests(100, cfg, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different requests")
		}
		if a[i].PromptLen < cfg.MinPrompt || a[i].PromptLen > cfg.MaxPrompt {
			t.Fatalf("prompt %d out of range", a[i].PromptLen)
		}
		if a[i].OutputLen < cfg.MinOutput || a[i].OutputLen > cfg.MaxOutput {
			t.Fatalf("output %d out of range", a[i].OutputLen)
		}
	}
	c, _ := GenRequests(100, cfg, 8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical requests")
	}
}

func TestGenRequestsValidation(t *testing.T) {
	if _, err := GenRequests(0, DefaultGenConfig(), 1); err == nil {
		t.Fatal("accepted zero requests")
	}
	if _, err := GenRequests(1, GenConfig{MinPrompt: 10, MaxPrompt: 5, MinOutput: 1, MaxOutput: 2}, 1); err == nil {
		t.Fatal("accepted inverted prompt range")
	}
}

func TestContiguousLifecycleAndWaste(t *testing.T) {
	alloc := newServeAlloc(8 * sim.GiB)
	mgr := NewContiguousKV(alloc, model.OPT1_3B, 1024)
	h, err := mgr.Admit(Request{ID: 1, PromptLen: 100, OutputLen: 50})
	if err != nil {
		t.Fatal(err)
	}
	perTok := KVBytesPerToken(model.OPT1_3B)
	if got := mgr.LogicalBytes(); got != 100*perTok {
		t.Fatalf("logical = %d", got)
	}
	if mgr.UsedBytes() < 1024*perTok {
		t.Fatalf("used = %d, want ≥ full padded buffer", mgr.UsedBytes())
	}
	if w := waste(mgr); w < 0.85 {
		t.Fatalf("pad-to-max waste = %.2f, expected ≥ 0.85 for a 100/1024 fill", w)
	}
	for i := 0; i < 50; i++ {
		if err := mgr.Append(h); err != nil {
			t.Fatal(err)
		}
	}
	mgr.Release(h)
	if mgr.UsedBytes() != 0 || mgr.LogicalBytes() != 0 {
		t.Fatal("release leaked accounting")
	}
	if alloc.Stats().Active != 0 {
		t.Fatal("release leaked device memory")
	}
}

func TestContiguousRejectsOversizedRequest(t *testing.T) {
	mgr := NewContiguousKV(newServeAlloc(sim.GiB), model.OPT1_3B, 128)
	if _, err := mgr.Admit(Request{PromptLen: 100, OutputLen: 100}); err == nil {
		t.Fatal("oversized request admitted")
	}
}

func TestContiguousAppendBeyondMaxErrors(t *testing.T) {
	mgr := NewContiguousKV(newServeAlloc(sim.GiB), model.OPT1_3B, 4)
	h, err := mgr.Admit(Request{PromptLen: 4, OutputLen: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Append(h); err == nil {
		t.Fatal("append past max succeeded")
	}
}

func TestPagedBlockAccounting(t *testing.T) {
	alloc := newServeAlloc(8 * sim.GiB)
	mgr, err := NewPagedKV(alloc, model.OPT1_3B, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	// 33 prompt tokens → 3 blocks of 16.
	h, err := mgr.Admit(Request{PromptLen: 33, OutputLen: 0})
	if err != nil {
		t.Fatal(err)
	}
	perTok := KVBytesPerToken(model.OPT1_3B)
	if got := mgr.UsedBytes(); got != 3*16*perTok {
		t.Fatalf("used = %d, want 3 blocks", got)
	}
	// Waste bounded by the partial block: 48−33 = 15 tokens.
	if w := waste(mgr); w > float64(15)/float64(48)+1e-9 {
		t.Fatalf("paged waste %.3f above partial-block bound", w)
	}
	// 15 appends fill block 3; the 16th takes a 4th block.
	for i := 0; i < 15; i++ {
		if err := mgr.Append(h); err != nil {
			t.Fatal(err)
		}
	}
	if mgr.UsedBytes() != 3*16*perTok {
		t.Fatal("filling a partial block must not take a new one")
	}
	if err := mgr.Append(h); err != nil {
		t.Fatal(err)
	}
	if mgr.UsedBytes() != 4*16*perTok {
		t.Fatal("crossing a block boundary must take a new block")
	}
	mgr.Release(h)
	if mgr.UsedBytes() != 0 {
		t.Fatal("release did not return blocks")
	}
}

func TestPagedExhaustionAndReuse(t *testing.T) {
	alloc := newServeAlloc(8 * sim.GiB)
	mgr, err := NewPagedKV(alloc, model.OPT1_3B, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	h1, err := mgr.Admit(Request{PromptLen: 64, OutputLen: 0}) // all 4 blocks
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Admit(Request{PromptLen: 1, OutputLen: 0}); err == nil {
		t.Fatal("admission with zero free blocks succeeded")
	}
	mgr.Release(h1)
	if _, err := mgr.Admit(Request{PromptLen: 64, OutputLen: 0}); err != nil {
		t.Fatalf("blocks not reusable after release: %v", err)
	}
}

func TestPagedValidation(t *testing.T) {
	if _, err := NewPagedKV(newServeAlloc(sim.GiB), model.OPT1_3B, 0, 4); err == nil {
		t.Fatal("accepted zero block tokens")
	}
	// Slab bigger than the device must fail cleanly.
	if _, err := NewPagedKV(newServeAlloc(64*sim.MiB), model.OPT13B, 16, 1<<20); err == nil {
		t.Fatal("oversized slab accepted")
	}
}

func TestChunkedGrowthAndRelease(t *testing.T) {
	alloc := newServeAlloc(8 * sim.GiB)
	mgr := NewChunkedKV(alloc, model.OPT1_3B, 64)
	h, err := mgr.Admit(Request{PromptLen: 65, OutputLen: 0})
	if err != nil {
		t.Fatal(err)
	}
	perTok := KVBytesPerToken(model.OPT1_3B)
	// Prefill is one right-sized buffer: 65 tokens exactly (mod rounding).
	if got := mgr.UsedBytes(); got < 65*perTok || got > 66*perTok {
		t.Fatalf("prefill used = %d, want ≈ 65 tokens", got)
	}
	// The first append hits capacity and grows one 64-token decode chunk;
	// the next 63 stay inside it; the 65th grows again.
	before := mgr.UsedBytes()
	if err := mgr.Append(h); err != nil {
		t.Fatal(err)
	}
	afterGrow := mgr.UsedBytes()
	if afterGrow <= before {
		t.Fatal("append at capacity did not grow a chunk")
	}
	for i := 0; i < 63; i++ {
		if err := mgr.Append(h); err != nil {
			t.Fatal(err)
		}
	}
	if mgr.UsedBytes() != afterGrow {
		t.Fatal("append inside a chunk grew memory")
	}
	if err := mgr.Append(h); err != nil {
		t.Fatal(err)
	}
	if mgr.UsedBytes() <= afterGrow {
		t.Fatal("crossing a chunk boundary did not grow")
	}
	mgr.Release(h)
	if mgr.UsedBytes() != 0 || alloc.Stats().Active != 0 {
		t.Fatal("chunked release leaked")
	}
}

func TestChunkedAdmitRollsBackOnOOM(t *testing.T) {
	alloc := newServeAlloc(16 * sim.MiB)
	mgr := NewChunkedKV(alloc, model.OPT13B, 64)
	// One 64-token chunk of OPT-13B KV is 64·819200 B = 50 MiB > device.
	if _, err := mgr.Admit(Request{PromptLen: 640, OutputLen: 0}); err == nil {
		t.Fatal("admission succeeded beyond capacity")
	}
	if mgr.UsedBytes() != 0 || alloc.Stats().Active != 0 {
		t.Fatal("failed admission leaked partial chunks")
	}
}

// recycleAlloc is a memalloc.Allocator stub that hands out recycled Buffers
// and so allocates nothing once warm: what AllocsPerRun then counts is the
// KV manager's own bookkeeping.
type recycleAlloc struct{ spare []*memalloc.Buffer }

func (a *recycleAlloc) Name() string { return "recycle" }
func (a *recycleAlloc) Alloc(size int64) (*memalloc.Buffer, error) {
	n := len(a.spare)
	if n == 0 {
		return &memalloc.Buffer{BlockSize: size}, nil
	}
	b := a.spare[n-1]
	a.spare = a.spare[:n-1]
	b.BlockSize = size
	return b, nil
}
func (a *recycleAlloc) Free(b *memalloc.Buffer) { a.spare = append(a.spare, b) }
func (a *recycleAlloc) Stats() memalloc.Stats   { return memalloc.Stats{} }
func (a *recycleAlloc) EmptyCache()             {}

func TestChunkedWarmCycleAllocationFree(t *testing.T) {
	// A released slot keeps its bufs backing array: admitting into it and
	// growing three decode chunks must not regrow the slice.
	mgr := NewChunkedKV(&recycleAlloc{}, model.OPT1_3B, 4)
	cycle := func() {
		h, err := mgr.Admit(Request{PromptLen: 8})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			if err := mgr.Append(h); err != nil {
				t.Fatal(err)
			}
		}
		mgr.Release(h)
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("warm admit/append/release cycle allocates %.1f times, want 0", n)
	}
	if mgr.UsedBytes() != 0 || mgr.LogicalBytes() != 0 {
		t.Fatalf("cycle leaked: used %d logical %d", mgr.UsedBytes(), mgr.LogicalBytes())
	}
}

func TestWasteOrderingAcrossPolicies(t *testing.T) {
	// Same request on all three managers. Contiguous pads to max and
	// wastes most. Paged wastes at most one partial block. Chunked's
	// *manager-level* waste is near zero because the prompt buffer is
	// right-sized — its cost shows up as pool fragmentation in the backing
	// allocator instead, which is the paper's scope distinction.
	req := Request{PromptLen: 100, OutputLen: 0}

	contig := NewContiguousKV(newServeAlloc(8*sim.GiB), model.OPT1_3B, 1024)
	if _, err := contig.Admit(req); err != nil {
		t.Fatal(err)
	}
	paged, err := NewPagedKV(newServeAlloc(8*sim.GiB), model.OPT1_3B, 16, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer paged.Close()
	if _, err := paged.Admit(req); err != nil {
		t.Fatal(err)
	}
	chunked := NewChunkedKV(newServeAlloc(8*sim.GiB), model.OPT1_3B, 64)
	if _, err := chunked.Admit(req); err != nil {
		t.Fatal(err)
	}

	wc, wp, wk := waste(contig), waste(paged), waste(chunked)
	if !(wk < wp && wp < wc) {
		t.Fatalf("waste ordering chunked %.3f < paged %.3f < contiguous %.3f violated", wk, wp, wc)
	}
	if wk > 0.01 {
		t.Fatalf("chunked manager-level waste %.3f should be ≈ 0", wk)
	}
}

func TestUnknownHandlesAreSafe(t *testing.T) {
	mgr := NewChunkedKV(newServeAlloc(sim.GiB), model.OPT1_3B, 64)
	if err := mgr.Append(SeqHandle(42)); err == nil {
		t.Fatal("append on unknown handle succeeded")
	}
	mgr.Release(SeqHandle(42)) // must not panic
	contig := NewContiguousKV(newServeAlloc(sim.GiB), model.OPT1_3B, 64)
	if err := contig.Append(SeqHandle(1)); err == nil {
		t.Fatal("append on unknown handle succeeded")
	}
	contig.Release(SeqHandle(1))
}

func TestAdmitRejectsEmptyPrompt(t *testing.T) {
	bad := Request{ID: 1, PromptLen: 0, OutputLen: 4}
	if _, err := NewContiguousKV(newServeAlloc(sim.GiB), model.OPT1_3B, 64).Admit(bad); err == nil {
		t.Fatal("contiguous admitted empty prompt")
	}
	paged, err := NewPagedKV(newServeAlloc(sim.GiB), model.OPT1_3B, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer paged.Close()
	if _, err := paged.Admit(bad); err == nil {
		t.Fatal("paged admitted empty prompt")
	}
	if _, err := NewChunkedKV(newServeAlloc(sim.GiB), model.OPT1_3B, 64).Admit(bad); err == nil {
		t.Fatal("chunked admitted empty prompt")
	}
}

// TestKVConformance runs one script over the three policies — everything
// the shared slot table promises whatever the storage behind it: a failed
// Admit holds no slot, a released handle is dead (Append errors, Release is
// a no-op) until its slot is issued again, handles recycle so the table
// stays at the live-sequence high-water mark, and releasing everything
// returns both byte gauges to zero. Then Reserve and Decode are held against
// single Appends on twin managers (see checkReserveDecode).
func TestKVConformance(t *testing.T) {
	contig := NewContiguousKV(newServeAlloc(64*sim.MiB), model.OPT1_3B, 64)
	paged, err := NewPagedKV(newServeAlloc(64*sim.MiB), model.OPT1_3B, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer paged.Close()
	chunked := NewChunkedKV(newServeAlloc(64*sim.MiB), model.OPT1_3B, 16)
	for _, tc := range []struct {
		name  string
		mgr   CacheManager
		table *seqTable
	}{{"contiguous", contig, &contig.seqTable}, {"paged", paged, &paged.seqTable}, {"chunked", chunked, &chunked.seqTable}} {
		mgr, table := tc.mgr, tc.table
		t.Run(tc.name, func(t *testing.T) {
			req := Request{PromptLen: 16, OutputLen: 8}
			fill := func() (live []SeqHandle) {
				for len(live) < 1000 {
					h, err := mgr.Admit(req)
					if err != nil {
						return live
					}
					live = append(live, h)
				}
				t.Fatal("a 64 MiB device never filled")
				return nil
			}
			live := fill()
			peak := len(live)
			if peak < 3 {
				t.Fatalf("only %d sequences fit; the script needs 3", peak)
			}
			if len(table.seqs) != peak || len(table.free) != 0 {
				t.Fatalf("after the failed Admit: %d slots, %d free, want %d and 0", len(table.seqs), len(table.free), peak)
			}

			mgr.Release(live[0])
			mgr.Release(live[1])
			used, logical := mgr.UsedBytes(), mgr.LogicalBytes()
			if err := mgr.Append(live[0]); err == nil {
				t.Error("Append on a released handle succeeded")
			}
			mgr.Release(live[0])
			if mgr.UsedBytes() != used || mgr.LogicalBytes() != logical || len(table.free) != 2 {
				t.Errorf("second Release of one handle changed the books: used %d→%d, logical %d→%d, %d free",
					used, mgr.UsedBytes(), logical, mgr.LogicalBytes(), len(table.free))
			}
			if err := mgr.Append(live[2]); err != nil {
				t.Errorf("Append with room returned: %v", err)
			}
			if got := mgr.LogicalBytes() - logical; got != KVBytesPerToken(model.OPT1_3B) {
				t.Errorf("one Append stored %d bytes", got)
			}
			h, err := mgr.Admit(req)
			if err != nil {
				t.Fatalf("Admit into returned storage: %v", err)
			}
			if h != live[0] && h != live[1] || len(table.seqs) != peak {
				t.Errorf("Admit issued handle %d in a table of %d; want a recycled one of %v and %d slots", h, len(table.seqs), live[:2], peak)
			}

			for _, h := range live { // live[0] or live[1] is dead: a no-op
				mgr.Release(h)
			}
			if mgr.UsedBytes() != 0 || mgr.LogicalBytes() != 0 || len(table.free) != peak {
				t.Fatalf("after releasing everything: used %d, logical %d, %d of %d slots free",
					mgr.UsedBytes(), mgr.LogicalBytes(), len(table.free), peak)
			}
			if again := len(fill()); again != peak || len(table.seqs) != peak {
				t.Errorf("second fill admitted %d into %d slots, want %d and %d", again, len(table.seqs), peak, peak)
			}
		})
	}
	for _, tc := range []struct {
		name string
		mk   func() CacheManager
	}{
		{"contiguous", func() CacheManager { return NewContiguousKV(newServeAlloc(64*sim.MiB), model.OPT1_3B, 64) }},
		{"paged", func() CacheManager {
			p, err := NewPagedKV(newServeAlloc(64*sim.MiB), model.OPT1_3B, 16, 8)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}},
		{"chunked", func() CacheManager { return NewChunkedKV(newServeAlloc(64*sim.MiB), model.OPT1_3B, 16) }},
	} {
		t.Run(tc.name+"/reserve-decode", func(t *testing.T) { checkReserveDecode(t, tc.mk(), tc.mk()) })
	}
}

// checkReserveDecode decodes three sequences on two fresh managers of one
// policy until the storage runs out: a appends every token of every sequence
// one by one, b reserves a sequence only when its reported room is used up
// and then decodes all of them in one call. Tick by tick, b must have grown
// exactly what a grew and store exactly what a stored; the tick that runs
// out must fail b's Reserve on the sequence whose Append failed on a, and
// change nothing in b; and releasing everything must empty both.
func checkReserveDecode(t *testing.T, a, b CacheManager) {
	perToken := KVBytesPerToken(model.OPT1_3B)
	var live []SeqHandle
	for i := 0; i < 3; i++ {
		r := Request{ID: i, PromptLen: 16 + 5*i, OutputLen: 1}
		ha, errA := a.Admit(r)
		hb, errB := b.Admit(r)
		if errA != nil || errB != nil || ha != hb {
			t.Fatalf("admission %d: %d/%v vs %d/%v", i, ha, errA, hb, errB)
		}
		live = append(live, ha)
	}
	room := map[SeqHandle]int{}
	for tick := 0; ; tick++ {
		if tick > 1000 {
			t.Fatal("the pool never ran out")
		}
		failA, failB := -1, -1
		for i, h := range live {
			if err := a.Append(h); err != nil {
				failA = i
				break
			}
		}
		usedB, logicalB := b.UsedBytes(), b.LogicalBytes()
		for i, h := range live {
			if room[h] > 0 {
				continue
			}
			r, err := b.Reserve(h)
			if err != nil {
				failB = i
				break
			}
			if r < 1 {
				t.Fatalf("tick %d: Reserve reported room %d", tick, r)
			}
			room[h] = r
		}
		if failA != failB {
			t.Fatalf("tick %d: Append failed on sequence %d, Reserve on %d", tick, failA, failB)
		}
		if failA >= 0 {
			if b.LogicalBytes() != logicalB || a.UsedBytes() != b.UsedBytes() ||
				a.LogicalBytes() != b.LogicalBytes()+int64(failA)*perToken {
				t.Errorf("after the failed reserve: used %d vs %d, logical %d vs %d (was %d, used %d)",
					a.UsedBytes(), b.UsedBytes(), a.LogicalBytes(), b.LogicalBytes(), logicalB, usedB)
			}
			break
		}
		b.Decode()
		for _, h := range live {
			room[h]--
		}
		if a.UsedBytes() != b.UsedBytes() || a.LogicalBytes() != b.LogicalBytes() {
			t.Fatalf("tick %d: used %d vs %d, logical %d vs %d", tick, a.UsedBytes(), b.UsedBytes(), a.LogicalBytes(), b.LogicalBytes())
		}
	}
	for _, h := range live {
		a.Release(h)
		b.Release(h)
	}
	if a.UsedBytes()|a.LogicalBytes()|b.UsedBytes()|b.LogicalBytes() != 0 {
		t.Fatalf("after releasing everything: used %d/%d, logical %d/%d", a.UsedBytes(), b.UsedBytes(), a.LogicalBytes(), b.LogicalBytes())
	}
}

// waste is the step's waste ratio for m's gauges as they stand.
func waste(m CacheManager) float64 { return wasteRatio(m.UsedBytes(), m.LogicalBytes()) }
