package core

import "slices"

// fitState is the outcome of the BestFit search, paper Algorithm 1.
type fitState int

const (
	// fitExact (S1): an inactive block — sBlock or pBlock — matches the
	// request exactly. The only state in which an sBlock may be handed out.
	fitExact fitState = iota + 1
	// fitSingle (S2): the best-fit single pBlock is larger than the request
	// and will be split.
	fitSingle
	// fitMultiple (S3): no single pBlock fits, but several together do and
	// will be stitched.
	fitMultiple
	// fitInsufficient (S4): the inactive pBlocks cannot cover the request;
	// new physical memory must be allocated for the deficit.
	fitInsufficient
)

// bestFitResult carries the candidates out of the search.
type bestFitResult struct {
	state  fitState
	exactS *SBlock   // set for fitExact when the match is an sBlock
	exactP *PBlock   // set for fitExact when the match is a pBlock
	cands  []*PBlock // candidate pBlocks for S2/S3/S4
	total  int64     // Σ candidate sizes
}

// bestFit implements paper Algorithm 1 over the inactive pools.
//
// Exact matches are looked up directly in both pools' size classes (line
// 2-4's scan, done by reading set bits). Otherwise the inactive pBlocks are walked in
// descending size order: while blocks still cover the request the current
// best (smallest sufficient) single block is retained; once blocks become
// smaller than the request they are accumulated greedily until the running
// total covers it.
//
// Candidates smaller than fragLimit are skipped during accumulation — the
// paper's §4.2.3 robustness rule ("if a block is smaller than this limit,
// GMLake will avoid stitching or splitting it"); they remain reusable
// through exact matches.
func (a *Allocator) bestFit(size int64) bestFitResult {
	// S1: exact match, sBlocks first (reusing a cached stitched block is
	// the convergence mechanism of §5.4).
	if s := a.sblocks.findExact(size); s != nil {
		return bestFitResult{state: fitExact, exactS: s}
	}
	if p := a.pblocks.findExact(size); p != nil {
		return bestFitResult{state: fitExact, exactP: p}
	}

	// Single-block regime: the smallest inactive pBlock covering the whole
	// request (best fit). Exact sizes were handled above, so this is a
	// strictly larger block headed for a split.
	if p := a.pblocks.ceil(size); p != nil {
		a.cands = append(a.cands[:0], p)
		return bestFitResult{state: fitSingle, cands: a.cands, total: p.size}
	}

	// Multi-block regime. The first pass honours the fragmentation limit;
	// if that leaves the request uncovered, a second pass admits the small
	// blocks too — stitching fragments is still better than allocating new
	// physical memory (and far better than reporting OOM).
	cands, total := a.collectCandidates(size, a.cfg.FragLimit)
	if total < size {
		cands, total = a.collectCandidates(size, 0)
	}
	if total >= size {
		return bestFitResult{state: fitMultiple, cands: cands, total: total}
	}
	return bestFitResult{state: fitInsufficient, cands: cands, total: total}
}

// collectCandidates accumulates inactive pBlocks (each at least minBlock
// bytes) for stitching, walking sizes in descending order and never letting
// a block overshoot the remaining need. On 2 MiB-granular block populations
// this lands an exact sum most of the time, which matters doubly: no
// trailing split is needed (splits destroy every cached sBlock over the
// split block, erasing the convergence tape), and the stitched block matches
// the request with zero waste.
//
// When the exact walk leaves a remainder, the smallest block covering the
// remainder is appended for the caller to split — preferring, among
// same-sized choices, a block with the fewest stitched views over it.
//
// The candidates are appended to the allocator's scratch slice, which the
// next search overwrites.
func (a *Allocator) collectCandidates(size, minBlock int64) ([]*PBlock, int64) {
	cands := a.cands[:0]
	needed := size
	// The walk would pass over blocks larger than the need, so where the
	// next block is one, it jumps to the largest that is not: every block
	// it lands on is taken.
	for p := a.pblocks.floor(needed); p != nil && p.size >= minBlock; {
		cands = append(cands, p)
		if needed -= p.size; needed == 0 {
			break
		}
		if p = a.pblocks.prev(p); p != nil && p.size > needed {
			p = a.pblocks.floor(needed)
		}
	}
	total := size - needed
	if needed > 0 {
		// Top up with a block to split. Everything accumulated so far is
		// excluded; ties on size prefer fewer owner sBlocks to limit tape
		// damage.
		var top *PBlock
		scanned := 0
		for p := a.pblocks.ceil(needed); p != nil && scanned < 8; p = a.pblocks.next(p) {
			if slices.Contains(cands, p) {
				continue
			}
			scanned++
			if top == nil || len(p.owners) < len(top.owners) {
				top = p
			}
			if len(top.owners) == 0 {
				break
			}
		}
		if top != nil {
			cands = append(cands, top)
			total += top.size
		}
	}
	a.cands = cands
	return cands, total
}
