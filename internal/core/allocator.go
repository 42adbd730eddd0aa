package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/caching"
	"repro/internal/container"
	"repro/internal/cuda"
	"repro/internal/memalloc"
	"repro/internal/sim"
)

// Config tunes the GMLake allocator. The defaults follow the paper's best
// practices.
type Config struct {
	// FragLimit is the minimal fragment size (paper §4.2.3, default
	// 128 MiB): inactive pBlocks smaller than this are never used as stitch
	// candidates and splits never produce them deliberately; they remain
	// reusable through exact matches.
	FragLimit int64

	// MaxSBlocks caps the stitched pool. When exceeded, StitchFree evicts
	// least-recently-used unassigned sBlocks (paper §4.2.3's fallback).
	MaxSBlocks int

	// RebindOnSplit keeps cached sBlocks alive across pBlock splits by
	// rebinding their member lists to the two halves instead of destroying
	// them. An sBlock's chunk mappings are unaffected by a member split —
	// the physical chunks and the stitched VA stay exactly as they were —
	// so only the soft links in the sPool (paper §4.2.1) need updating.
	// This preserves the convergence "tape" (§5.4) under memory pressure,
	// where splits are frequent. Disable to measure the paper's literal
	// split semantics (the ablation benchmark in bench_test.go).
	RebindOnSplit bool
}

// SmallThreshold is one chunk: requests below it go to an embedded caching
// allocator (paper §3.1: "for memory allocation less than 2 MB, we use the
// original PyTorch splitting method").
const SmallThreshold = ChunkSize

// DefaultConfig returns the paper's recommended configuration.
func DefaultConfig() Config {
	return Config{
		FragLimit:     128 * sim.MiB,
		MaxSBlocks:    32768,
		RebindOnSplit: true,
	}
}

// Allocator is the GMLake allocator (paper Figure 7, right side). It
// implements memalloc.Allocator.
type Allocator struct {
	driver  *cuda.Driver
	cfg     Config
	acct    memalloc.Accounting
	handles memalloc.Handles

	pblocks *pPool
	sblocks *sPool

	// pspare and sspare keep the records of retired blocks: every split,
	// stitch and new pBlock takes its record from them.
	pspare container.Spares[PBlock]
	sspare container.Spares[SBlock]

	// small serves sub-2 MiB requests with the original splitting method.
	small *caching.Allocator

	// strategy counters, one per Figure 9 state; tests assert convergence
	// (steady-state training uses only S1) through them.
	hits struct {
		s1Exact, s2Single, s3Multiple, s4Insufficient int64
	}
	stitchFrees int64
	gcRuns      int64

	// cands is the scratch slice bestFit returns its candidates in; an
	// sBlock stitched from them stores its own copy. victims and owners are
	// gcInactive's and dropOwners' scratch.
	cands   []*PBlock
	victims []*PBlock
	owners  []*SBlock
}

// New returns a GMLake allocator over driver with cfg.
func New(driver *cuda.Driver, cfg Config) *Allocator {
	return &Allocator{
		driver:  driver,
		cfg:     cfg,
		pblocks: &pPool{},
		sblocks: &sPool{classes: make(map[int64]*sClass)},
		small:   caching.New(driver),
	}
}

// NewDefault returns a GMLake allocator with DefaultConfig.
func NewDefault(driver *cuda.Driver) *Allocator { return New(driver, DefaultConfig()) }

// Name implements memalloc.Allocator.
func (a *Allocator) Name() string { return "gmlake" }

// Stats implements memalloc.Allocator, combining the VMM pools with the
// embedded small-request allocator.
func (a *Allocator) Stats() memalloc.Stats {
	return a.acct.Stats().Add(a.small.Stats())
}

// ResetPeaks restarts peak tracking from current levels.
func (a *Allocator) ResetPeaks() {
	a.acct.ResetPeaks()
	a.small.ResetPeaks()
}

// StrategyCounts reports how many allocations each Figure 9 state served:
// exact match (S1), split (S2), stitch (S3), new physical allocation (S4).
func (a *Allocator) StrategyCounts() (s1, s2, s3, s4 int64) {
	return a.hits.s1Exact, a.hits.s2Single, a.hits.s3Multiple, a.hits.s4Insufficient
}

// Alloc implements memalloc.Allocator with the paper's Figure 9 strategy.
func (a *Allocator) Alloc(size int64) (*memalloc.Buffer, error) {
	if size <= 0 {
		return nil, fmt.Errorf("core: Alloc(%d)", size)
	}
	if size > memalloc.MaxAllocSize {
		return nil, &memalloc.TooLargeError{Allocator: a.Name(), Size: size}
	}
	if size < SmallThreshold {
		buf, err := a.small.Alloc(size)
		if err != nil {
			// The stitched pool may be caching the whole device: release
			// its inactive physical memory and retry once, as allocNew does.
			a.gcInactive(nil)
			buf, err = a.small.Alloc(size)
		}
		return buf, err
	}
	a.driver.Clock().Advance(a.driver.Cost().HostOp())
	rounded := sim.RoundUp(size, ChunkSize)

	fit := a.bestFit(rounded)
	switch fit.state {
	case fitExact: // S1
		a.hits.s1Exact++
		if fit.exactS != nil {
			return a.assignSBlock(fit.exactS), nil
		}
		return a.assignPBlock(fit.exactP), nil

	case fitSingle: // S2
		a.hits.s2Single++
		buf := a.allocSplit(fit.cands[0], rounded)
		a.stitchFreeIfNeeded()
		return buf, nil

	case fitMultiple: // S3
		a.hits.s3Multiple++
		buf := a.allocStitch(fit.cands, rounded)
		a.stitchFreeIfNeeded()
		return buf, nil

	default: // S4 (and S5 on failure)
		a.hits.s4Insufficient++
		buf, err := a.allocNew(fit.cands, fit.total, rounded)
		if err == nil {
			a.stitchFreeIfNeeded()
		}
		return buf, err
	}
}

// assignPBlock hands p to a tensor.
func (a *Allocator) assignPBlock(p *PBlock) *memalloc.Buffer {
	if p.assigned || p.Active() {
		panic("core: assign of active pBlock")
	}
	p.assigned = true
	p.activeRefs++
	p.class.clear(p.slot)
	a.acct.OnAlloc(p.size)
	return a.handles.New(p.va, p.size, p)
}

// assignSBlock hands s, whose bit is set because no member is active, to a
// tensor, activating all member pBlocks.
func (a *Allocator) assignSBlock(s *SBlock) *memalloc.Buffer {
	if s.assigned {
		panic("core: assign of active sBlock")
	}
	s.assigned = true
	s.class.clear(s.slot)
	a.sblocks.touch(s)
	for _, p := range s.members {
		if p.Active() {
			panic("core: assign of active sBlock")
		}
		p.activeRefs++
		p.class.clear(p.slot)
	}
	a.acct.OnAlloc(s.size)
	return a.handles.New(s.va, s.size, s)
}

// deactivatePBlock decrements p's active references. On the 1→0 edge p's
// bit marks it inactive again and its watchers, which followed p as their
// proof of being unavailable, go back under their bits without a look at
// their other members: the next lookup to meet one checks it.
func (a *Allocator) deactivatePBlock(p *PBlock) {
	if p.activeRefs <= 0 {
		panic("core: deactivate of inactive pBlock")
	}
	p.activeRefs--
	if p.activeRefs > 0 {
		return
	}
	p.class.set(p.slot)
	for s := p.watchers; s != nil; {
		next := s.watchNext
		s.watchNext = nil
		s.class.set(s.slot)
		s = next
	}
	p.watchers = nil
}

// allocSplit implements S2: split the best-fit pBlock to the exact size, hand
// out the front, and — per Figure 9 — stitch the two halves into an sBlock
// that preserves the original size for future exact matches.
func (a *Allocator) allocSplit(cand *PBlock, rounded int64) *memalloc.Buffer {
	if cand.size-rounded < ChunkSize {
		// Remainder below chunk granularity: hand out the whole block.
		return a.assignPBlock(cand)
	}
	hadOwners := len(cand.owners) > 0
	front, back := a.split(cand, rounded)
	if !hadOwners {
		// Preserve the original size for future exact matches (Figure 9's
		// S2 side effect); with rebinding, surviving owner sBlocks already
		// do that.
		a.sblocks.add(a.stitchSBlock([]*PBlock{front, back}))
	}
	return a.assignPBlock(front)
}

// split divides an inactive pBlock, either rebinding or destroying the
// sBlocks stitched over it per the configuration, and updates the pool.
func (a *Allocator) split(p *PBlock, size int64) (front, back *PBlock) {
	var rebind []*SBlock
	if a.cfg.RebindOnSplit {
		// p's record keeps the list's array, cleared when it is retired.
		rebind, p.owners = p.owners, p.owners[:0]
		for _, s := range rebind {
			if s.assigned {
				panic("core: owner sBlock assigned while member inactive")
			}
		}
		slices.SortFunc(rebind, byVA)
	} else {
		a.dropOwners(p)
	}
	a.pblocks.remove(p)
	front, back = a.splitPBlock(p, size)
	a.pblocks.add(front)
	a.pblocks.add(back)
	front.owners = slices.Grow(front.owners, len(rebind))
	back.owners = slices.Grow(back.owners, len(rebind))
	for _, s := range rebind {
		replaceMember(s, p, front, back)
		front.owners = append(front.owners, s)
		back.owners = append(back.owners, s)
	}
	// replaceMember finds p by address: only now may its record be reused.
	a.retirePBlock(p)
	return front, back
}

// allocStitch implements S3: stitch candidate pBlocks (splitting the last one
// if the total overshoots) into an exact-size sBlock and hand it out.
func (a *Allocator) allocStitch(cands []*PBlock, rounded int64) *memalloc.Buffer {
	members, total := a.trimCandidates(cands, rounded)
	if total != rounded {
		panic(fmt.Sprintf("core: stitch total %d != rounded %d", total, rounded))
	}
	if len(members) == 1 {
		// Trimming collapsed the request onto a single exact block.
		return a.assignPBlock(members[0])
	}
	s := a.stitchSBlock(members)
	a.sblocks.add(s)
	return a.assignSBlock(s)
}

// trimCandidates adjusts the candidate set so the combined size equals
// rounded exactly. It first tries to complete the sum with an existing
// inactive pBlock of exactly the missing size — splitting destroys every
// cached sBlock stitched over the split block (erasing the §5.4 "tape"), so
// an exact completion is strictly better. Only when no exact completion
// exists is the last candidate split (the paper's S3 "the final pBlock can
// be subdivided"). It may return cands itself, with its last element
// replaced.
func (a *Allocator) trimCandidates(cands []*PBlock, rounded int64) ([]*PBlock, int64) {
	var total int64
	for _, p := range cands {
		total += p.size
	}
	if total == rounded {
		return cands, total
	}
	last := cands[len(cands)-1]
	need := rounded - (total - last.size)
	if need <= 0 || need%ChunkSize != 0 {
		panic(fmt.Sprintf("core: trim needs %d from block of %d", need, last.size))
	}
	if exact := a.findExactCompletion(cands, need); exact != nil {
		cands[len(cands)-1] = exact
		return cands, rounded
	}
	hadOwners := len(last.owners) > 0
	front, back := a.split(last, need)
	if !hadOwners && !a.cfg.RebindOnSplit {
		a.sblocks.add(a.stitchSBlock([]*PBlock{front, back}))
	}
	cands[len(cands)-1] = front
	return cands, rounded
}

// findExactCompletion returns an inactive pBlock of exactly need bytes that
// is not already among cands, or nil.
func (a *Allocator) findExactCompletion(cands []*PBlock, need int64) *PBlock {
	for p := a.pblocks.ceil(need); p != nil; p = a.pblocks.next(p) {
		if p.size != need {
			return nil
		}
		if !slices.Contains(cands, p) {
			return p
		}
	}
	return nil
}

// allocNew implements S4: allocate a fresh pBlock covering the deficit and
// stitch it with whatever candidates exist. On device OOM it garbage-collects
// inactive physical memory (sparing the candidates) and retries once; if the
// deficit still cannot be created, S5 reports out-of-memory.
func (a *Allocator) allocNew(cands []*PBlock, total, rounded int64) (*memalloc.Buffer, error) {
	deficit := rounded - total
	fresh, err := a.newPBlock(deficit)
	if err != nil {
		a.gcInactive(cands)
		fresh, err = a.newPBlock(deficit)
		if err != nil {
			return nil, &s5Error{rounded: rounded, deficit: deficit, err: err}
		}
	}
	a.pblocks.add(fresh)
	a.acct.OnReserve(deficit)
	if len(cands) == 0 {
		return a.assignPBlock(fresh), nil
	}
	s := a.stitchSBlock(append(cands, fresh))
	a.sblocks.add(s)
	return a.assignSBlock(s), nil
}

// s5Error is S5's out-of-memory report. It is formatted only when read: a
// serving loop retries a refused admission every step and never prints it.
type s5Error struct {
	rounded, deficit int64
	err              error
}

func (e *s5Error) Error() string {
	return fmt.Sprintf("core: S5 out of memory allocating %s (deficit %s): %v",
		sim.FormatBytes(e.rounded), sim.FormatBytes(e.deficit), e.err)
}

// Unwrap exposes the driver's refusal, so errors.Is finds ErrOutOfMemory.
func (e *s5Error) Unwrap() error { return e.err }

// Free implements memalloc.Allocator. Per the paper's deallocation module it
// never releases physical memory — it only flips active state (Update), so a
// future same-size allocation exact-matches instantly.
func (a *Allocator) Free(buf *memalloc.Buffer) {
	// The paper's Update function: restore inactive state on the freed block;
	// the sBlocks watching its pBlocks are the only neighbours it touches.
	switch b := buf.Impl().(type) {
	case nil:
		panic("core: double Free")
	case *PBlock:
		if !b.assigned {
			panic("core: double Free of pBlock")
		}
		b.assigned = false
		a.deactivatePBlock(b)
	case *SBlock:
		if !b.assigned {
			panic("core: double Free of sBlock")
		}
		b.assigned = false
		a.sblocks.touch(b)
		for _, p := range b.members {
			a.deactivatePBlock(p)
		}
		b.class.set(b.slot)
	default:
		// Small-pool buffer: owned by the embedded caching allocator.
		a.small.Free(buf)
		return
	}
	a.driver.Clock().Advance(a.driver.Cost().HostOp())
	a.acct.OnFree(buf.BlockSize)
	buf.SetImpl(nil)
}

// stitchFreeIfNeeded evicts least-recently-used unassigned sBlocks while the
// stitched pool exceeds its cap (paper's StitchFree).
func (a *Allocator) stitchFreeIfNeeded() {
	if a.cfg.MaxSBlocks <= 0 {
		return
	}
	for a.sblocks.count > a.cfg.MaxSBlocks {
		victim := a.oldestUnassigned()
		if victim == nil {
			return // everything is assigned; nothing to evict
		}
		a.dropSBlock(victim)
		a.stitchFrees++
	}
}

// oldestUnassigned returns the least-recently-used sBlock with no tensor.
func (a *Allocator) oldestUnassigned() *SBlock {
	var victim *SBlock
	a.sblocks.lru.Each(func(s *SBlock) bool {
		if !s.assigned {
			victim = s
			return false
		}
		return true
	})
	return victim
}

func byVA(a, b *SBlock) int { return cmp.Compare(a.va, b.va) }

// dropOwners unstitches every sBlock referencing p. Only legal when p is
// inactive, which guarantees no tensor lives in any of those sBlocks.
func (a *Allocator) dropOwners(p *PBlock) {
	if p.Active() {
		panic("core: dropOwners of active pBlock")
	}
	// Unstitching edits p.owners and issues driver calls (unmap, VA free):
	// walk a copy, in VA order whatever order the views were stitched in.
	a.owners = append(a.owners[:0], p.owners...)
	slices.SortFunc(a.owners, byVA)
	for _, s := range a.owners {
		if s.assigned {
			panic("core: owner sBlock assigned while member inactive")
		}
		a.dropSBlock(s)
	}
	clear(a.owners)
}

// gcInactive releases the physical memory of every inactive pBlock except
// those in keep: the allocator's last resort before reporting OOM, analogous
// to the caching allocator's cache flush.
func (a *Allocator) gcInactive(keep []*PBlock) {
	a.gcRuns++
	victims := a.victims[:0]
	for _, c := range a.pblocks.classes {
		for _, p := range c.slots {
			if !p.Active() && !slices.Contains(keep, p) {
				victims = append(victims, p)
			}
		}
	}
	// Destroy in VA order, not the classes' (size, VA) order: the driver's
	// clock charges and VA free-range coalescing follow the release
	// sequence, and the goldens and digests pin this one.
	slices.SortFunc(victims, func(x, y *PBlock) int { return cmp.Compare(x.va, y.va) })
	for _, p := range victims {
		a.dropOwners(p)
		a.pblocks.remove(p)
		a.acct.OnRelease(p.size)
		a.destroyPBlock(p)
	}
	clear(victims)
	a.victims = victims
	a.small.EmptyCache()
}

// EmptyCache implements memalloc.Allocator: release all inactive physical
// memory and cached stitched views.
func (a *Allocator) EmptyCache() { a.gcInactive(nil) }

// PBlockCount reports live pBlocks (diagnostics).
func (a *Allocator) PBlockCount() int { return a.pblocks.count }

// SBlockCount reports live sBlocks (diagnostics).
func (a *Allocator) SBlockCount() int { return a.sblocks.count }

// FreeBlockSizes returns the size of every inactive pBlock, ascending;
// fragstat consumes it for fragmentation indices. The notion is softer for
// GMLake than for the caching allocator: inactive pBlocks can be stitched
// into arbitrarily larger virtual blocks, so "free but small" does not mean
// "unusable" — exactly the paper's point.
func (a *Allocator) FreeBlockSizes() []int64 {
	var out []int64
	for p := a.pblocks.ceil(0); p != nil; p = a.pblocks.next(p) {
		out = append(out, p.size)
	}
	return out
}

// StitchFreeCount reports how many sBlocks StitchFree evicted.
func (a *Allocator) StitchFreeCount() int64 { return a.stitchFrees }

// GCRuns reports how many times the OOM fallback garbage collector ran.
func (a *Allocator) GCRuns() int64 { return a.gcRuns }

// CheckInvariants validates the §4.2.1 structural guarantees and the state
// contract the indexes rest on; tests call it after (and during) workloads:
//
//   - pPool bytes equal the allocator's reserved accounting;
//   - each pool's size classes hold as many blocks as its count, each in the
//     class of its size, in strictly ascending VA order at the slot it
//     records, with no bit set past the last slot; the pPool's classes are
//     non-empty and in strictly ascending size order, the sPool's non-empty
//     and keyed by their size;
//   - a pBlock's bit is set exactly while it is inactive;
//   - an unassigned sBlock has its bit set or is on the watcher list of
//     members[hint], which is active — never both, never neither; an
//     assigned one has neither, and so is on no list at all; an inactive
//     pBlock has no watchers;
//   - hence an unassigned sBlock with every member inactive has its bit set;
//   - sBlock membership and owner back-pointers agree both ways, without
//     duplicates, and name only blocks filed in their pools (the "sPool is
//     a subset of pPool" soft-link rule). A block is filed when the pool's
//     class for its size is its class and that class's slot it records
//     holds it.
func (a *Allocator) CheckInvariants() error {
	inPPool := func(p *PBlock) bool {
		i, found := a.pblocks.search(p.size)
		return found && a.pblocks.classes[i] == p.class && p.slot >= 0 && int(p.slot) < len(p.class.slots) && p.class.slots[p.slot] == p
	}
	inSPool := func(s *SBlock) bool {
		c := a.sblocks.classes[s.size]
		return c != nil && c == s.class && s.slot >= 0 && int(s.slot) < len(c.slots) && c.slots[s.slot] == s
	}
	filed := 0
	var bytes int64
	watching := make(map[*SBlock]*PBlock)
	for i, c := range a.pblocks.classes {
		if i > 0 && a.pblocks.classes[i-1].size >= c.size || len(c.slots) == 0 {
			return fmt.Errorf("core: pPool size class %d empty or out of order", c.size)
		}
		if err := c.check(); err != nil {
			return err
		}
		for _, p := range c.slots {
			if p.size != c.size || p.class != c {
				return fmt.Errorf("core: pPool size class %d holds a foreign pBlock", c.size)
			}
			filed++
			bytes += p.size
			if c.has(p.slot) == p.Active() {
				return fmt.Errorf("core: pBlock's inactive bit is %v while active is %v", c.has(p.slot), p.Active())
			}
			for j, s := range p.owners {
				if !inSPool(s) {
					return fmt.Errorf("core: pBlock owner sBlock not in sPool")
				}
				if slices.Contains(p.owners[:j], s) {
					return fmt.Errorf("core: sBlock twice among a pBlock's owners")
				}
				if !slices.Contains(s.members, p) {
					return fmt.Errorf("core: pBlock owner sBlock does not list it as member")
				}
			}
			if p.watchers != nil && !p.Active() {
				return fmt.Errorf("core: inactive pBlock still has watchers")
			}
			for s := p.watchers; s != nil; s = s.watchNext {
				if _, dup := watching[s]; dup {
					return fmt.Errorf("core: sBlock on two watcher lists, or twice on one")
				}
				watching[s] = p
			}
		}
	}
	if filed != a.pblocks.count {
		return fmt.Errorf("core: pPool size classes hold %d pBlocks, count is %d", filed, a.pblocks.count)
	}
	if bytes != a.pblocks.bytes {
		return fmt.Errorf("core: pPool bytes %d != tracked %d", bytes, a.pblocks.bytes)
	}
	if got := a.acct.Stats().Reserved; got != bytes {
		return fmt.Errorf("core: reserved accounting %d != pPool bytes %d", got, bytes)
	}
	filed = 0
	for size, c := range a.sblocks.classes {
		if c.size != size || len(c.slots) == 0 {
			return fmt.Errorf("core: sPool size class %d empty or filed under %d", c.size, size)
		}
		if err := c.check(); err != nil {
			return err
		}
		for _, s := range c.slots {
			if s.size != size || s.class != c {
				return fmt.Errorf("core: sPool size class %d holds a foreign sBlock", size)
			}
			filed++
			for _, p := range s.members {
				if !inPPool(p) {
					return fmt.Errorf("core: sBlock member not in pPool")
				}
				if !slices.Contains(p.owners, s) {
					return fmt.Errorf("core: sBlock missing from member's owners")
				}
			}
			watched, indexed := watching[s], c.has(s.slot)
			delete(watching, s)
			switch {
			case s.assigned && (indexed || watched != nil):
				return fmt.Errorf("core: assigned sBlock has its bit set or is on a watcher list")
			case s.assigned:
			case indexed == (watched != nil):
				return fmt.Errorf("core: unassigned sBlock bit=%v watching=%v, want exactly one", indexed, watched != nil)
			case !indexed && (s.members[s.hint] != watched || !watched.Active()):
				return fmt.Errorf("core: sBlock's watch is not on the active member its hint names")
			}
		}
	}
	if filed != a.sblocks.count {
		return fmt.Errorf("core: sPool size classes hold %d sBlocks, count is %d", filed, a.sblocks.count)
	}
	if len(watching) != 0 {
		return fmt.Errorf("core: %d watchers not in the sPool", len(watching))
	}
	return nil
}
