package serve

import (
	"fmt"

	"repro/internal/cuda"
	"repro/internal/memalloc"
	"repro/internal/model"
)

// seqTable is the one record of live KV sequences, shared by the three
// policies: a slot table — handle = slot index + 1 — with a LIFO of
// released slots. Reusing slots keeps the table at the live-sequence
// high-water mark (not the stream length) and makes handle resolution an
// index. A policy embeds the table and adds only its growth body, grow —
// how storage is reserved past the current capacity — and, for blocks of
// the paged slab, how it is returned.
//
// Decode credits every live sequence one token in O(1): it counts a tick,
// and a slot catches up on the ticks since it was last touched whenever seq
// resolves it. logicalTok stays exact at every tick.
type seqTable struct {
	alloc      memalloc.Allocator
	perToken   int64
	grow       func(s *kvSeq) error
	seqs       []kvSeq
	free       []SeqHandle
	usedBytes  int64
	logicalTok int64
	ticks      int64
}

// kvSeq is one slot: the sequence's storage — allocator buffers under the
// contiguous and chunked policies, slab blocks under the paged one — and
// its fill. A released slot keeps the backing arrays of bufs and blocks, so
// the next sequence admitted into it grows without reallocating.
type kvSeq struct {
	bufs      []*memalloc.Buffer
	blocks    []int
	tokens    int   // as of tick; 0 marks a vacant slot: live sequences hold ≥ 1 prompt token
	capTokens int   // tokens the reserved storage can hold
	tick      int64 // the table's ticks when tokens was last brought up to date
}

// checkPrompt rejects a request with no prompt, which would open a slot
// that looks vacant.
func checkPrompt(r *Request) error {
	if r.PromptLen <= 0 {
		return fmt.Errorf("serve: request %d has %d prompt tokens", r.ID, r.PromptLen)
	}
	return nil
}

// open issues a slot — a released one first — for a sequence of tokens
// prompt tokens. The caller has reserved the storage already, so a failed
// admission never holds a slot, and records it in the slot next.
func (t *seqTable) open(tokens int) (SeqHandle, *kvSeq) {
	var h SeqHandle
	if n := len(t.free); n > 0 {
		h = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		t.seqs = append(t.seqs, kvSeq{})
		h = SeqHandle(len(t.seqs))
	}
	s := &t.seqs[h-1]
	s.tokens, s.tick = tokens, t.ticks
	t.logicalTok += int64(tokens)
	return h, s
}

// hold records buf, room for tokens more tokens, as part of s's storage.
func (t *seqTable) hold(s *kvSeq, buf *memalloc.Buffer, tokens int) {
	s.bufs = append(s.bufs, buf)
	s.capTokens += tokens
	t.usedBytes += buf.BlockSize
}

// seq resolves a handle to its live slot, brought up to date with the ticks
// since it was last read; nil for unknown or released handles.
func (t *seqTable) seq(h SeqHandle) *kvSeq {
	if h <= 0 || int(h) > len(t.seqs) {
		return nil
	}
	s := &t.seqs[h-1]
	if s.tokens == 0 {
		return nil
	}
	s.tokens += int(t.ticks - s.tick)
	s.tick = t.ticks
	return s
}

// Reserve implements CacheManager: a full sequence grows by the policy's
// growth body, exactly as the Append of its next token would.
func (t *seqTable) Reserve(h SeqHandle) (room int, err error) {
	s := t.seq(h)
	if s == nil {
		return 0, fmt.Errorf("serve: unknown sequence %d", h)
	}
	if s.tokens == s.capTokens {
		if err := t.grow(s); err != nil {
			return 0, err
		}
	}
	return s.capTokens - s.tokens, nil
}

// Append implements CacheManager: reserve if full, then one token.
func (t *seqTable) Append(h SeqHandle) error {
	if _, err := t.Reserve(h); err != nil {
		return err
	}
	t.seqs[h-1].tokens++
	t.logicalTok++
	return nil
}

// Decode implements CacheManager: one token for every live sequence.
func (t *seqTable) Decode() {
	t.ticks++
	t.logicalTok += int64(len(t.seqs) - len(t.free))
}

// Release implements CacheManager: the sequence's buffers go back to the
// allocator and its slot is vacated, so the handle is dead until the slot
// is issued again.
func (t *seqTable) Release(h SeqHandle) {
	s := t.seq(h)
	if s == nil {
		return
	}
	for _, b := range s.bufs {
		t.usedBytes -= b.BlockSize
		t.alloc.Free(b)
	}
	t.logicalTok -= int64(s.tokens)
	clear(s.bufs)
	*s = kvSeq{bufs: s.bufs[:0], blocks: s.blocks[:0]}
	t.free = append(t.free, h)
}

// UsedBytes and LogicalBytes implement CacheManager for every policy.
func (t *seqTable) UsedBytes() int64    { return t.usedBytes }
func (t *seqTable) LogicalBytes() int64 { return t.logicalTok * t.perToken }

// ContiguousKV is the pad-to-maximum baseline vLLM replaced: every admitted
// request gets one contiguous buffer sized for the model's maximum sequence
// length, whatever it ends up generating. Internal waste is the unused tail.
type ContiguousKV struct {
	seqTable
	maxTokens int
}

// NewContiguousKV builds the pad-to-max manager for cfg, growing sequences
// up to maxTokens.
func NewContiguousKV(alloc memalloc.Allocator, cfg model.Config, maxTokens int) *ContiguousKV {
	c := &ContiguousKV{
		seqTable:  seqTable{alloc: alloc, perToken: KVBytesPerToken(cfg)},
		maxTokens: maxTokens,
	}
	// The contiguous growth body: the padded buffer never grows.
	c.grow = func(*kvSeq) error { return fmt.Errorf("serve: sequence exceeded %d max tokens", maxTokens) }
	return c
}

// Name implements CacheManager.
func (c *ContiguousKV) Name() string { return "contiguous" }

// Admit implements CacheManager.
func (c *ContiguousKV) Admit(r Request) (SeqHandle, error) {
	if err := checkPrompt(&r); err != nil {
		return 0, err
	}
	if r.TotalTokens() > c.maxTokens {
		return 0, fmt.Errorf("serve: request %d needs %d tokens, max %d", r.ID, r.TotalTokens(), c.maxTokens)
	}
	buf, err := c.alloc.Alloc(int64(c.maxTokens) * c.perToken)
	if err != nil {
		return 0, err
	}
	h, s := c.open(r.PromptLen)
	c.hold(s, buf, c.maxTokens)
	return h, nil
}

// PagedKV is the vLLM policy: the KV region is pre-allocated once and carved
// into fixed blocks of BlockTokens tokens; sequences hold block lists and
// grow block by block, so waste is bounded by one partial block per
// sequence. This defragments *within* the KV tensor (Table 3's "Tensor"
// scope) but the slab itself is one giant reservation the pool-level
// allocator must satisfy up front.
type PagedKV struct {
	seqTable
	blockTokens int
	slab        *memalloc.Buffer
	freeBlocks  []int
}

// NewPagedKV reserves a slab of totalBlocks blocks of blockTokens tokens
// each from alloc.
func NewPagedKV(alloc memalloc.Allocator, cfg model.Config, blockTokens, totalBlocks int) (*PagedKV, error) {
	if blockTokens <= 0 || totalBlocks <= 0 {
		return nil, fmt.Errorf("serve: paged config %d×%d", blockTokens, totalBlocks)
	}
	perToken := KVBytesPerToken(cfg)
	slab, err := alloc.Alloc(int64(blockTokens) * int64(totalBlocks) * perToken)
	if err != nil {
		return nil, fmt.Errorf("serve: KV slab: %w", err)
	}
	free := make([]int, totalBlocks)
	for i := range free {
		free[i] = i
	}
	p := &PagedKV{
		seqTable:    seqTable{alloc: alloc, perToken: perToken},
		blockTokens: blockTokens,
		slab:        slab,
		freeBlocks:  free,
	}
	p.grow = p.addBlock
	return p, nil
}

// Name implements CacheManager.
func (p *PagedKV) Name() string { return "paged" }

// Close releases the slab.
func (p *PagedKV) Close() { p.alloc.Free(p.slab) }

// blockBytes is the size of one block.
func (p *PagedKV) blockBytes() int64 { return int64(p.blockTokens) * p.perToken }

// take moves n free blocks, which the caller has checked exist, to s.
func (p *PagedKV) take(s *kvSeq, n int) {
	at := len(p.freeBlocks) - n
	s.blocks = append(s.blocks, p.freeBlocks[at:]...)
	p.freeBlocks = p.freeBlocks[:at]
	s.capTokens += n * p.blockTokens
	p.usedBytes += int64(n) * p.blockBytes()
}

// Admit implements CacheManager.
func (p *PagedKV) Admit(r Request) (SeqHandle, error) {
	if err := checkPrompt(&r); err != nil {
		return 0, err
	}
	need := (r.PromptLen + p.blockTokens - 1) / p.blockTokens
	if need > len(p.freeBlocks) {
		return 0, &blocksError{free: len(p.freeBlocks), need: need}
	}
	h, s := p.open(r.PromptLen)
	p.take(s, need)
	return h, nil
}

// blocksError is Admit's refusal when the slab is short of blocks,
// formatted only when read: a blocked admission is retried every step.
type blocksError struct{ free, need int }

func (e *blocksError) Error() string {
	return fmt.Sprintf("serve: %d free blocks, need %d (%v)", e.free, e.need, cuda.ErrOutOfMemory)
}

// Unwrap makes errors.Is(err, cuda.ErrOutOfMemory) hold.
func (e *blocksError) Unwrap() error { return cuda.ErrOutOfMemory }

// errNoBlock is addBlock's refusal; it carries no numbers, so one value
// serves them all.
var errNoBlock = fmt.Errorf("serve: out of KV blocks (%w)", cuda.ErrOutOfMemory)

// addBlock is the paged growth body: one more block from the slab.
func (p *PagedKV) addBlock(s *kvSeq) error {
	if len(p.freeBlocks) == 0 {
		return errNoBlock
	}
	p.take(s, 1)
	return nil
}

// Release implements CacheManager: the sequence's blocks rejoin the free
// list before the table vacates its slot.
func (p *PagedKV) Release(h SeqHandle) {
	if s := p.seq(h); s != nil {
		p.freeBlocks = append(p.freeBlocks, s.blocks...)
		p.usedBytes -= int64(len(s.blocks)) * p.blockBytes()
		p.seqTable.Release(h)
	}
}

// ChunkedKV grows each sequence in fixed chunks allocated from an ordinary
// tensor allocator — no custom paging, no pre-reserved slab. The chunks of
// one sequence are not physically contiguous; a real attention kernel needs
// them presented as one tensor, which is exactly what GMLake's virtual
// memory stitching provides for free. Running this manager over the caching
// allocator versus GMLake contrasts pool-level fragmentation on the same
// request stream (the paper's Table 3 scope argument, made executable).
type ChunkedKV struct {
	seqTable
	chunkTokens int
}

// NewChunkedKV builds the chunk-growing manager with decode chunks of
// chunkTokens tokens. The prompt KV is allocated as one right-sized buffer
// (prefill writes it in one kernel), so prompt-length variability reaches
// the pool allocator directly — the irregular sizing that fragments it.
func NewChunkedKV(alloc memalloc.Allocator, cfg model.Config, chunkTokens int) *ChunkedKV {
	c := &ChunkedKV{
		seqTable:    seqTable{alloc: alloc, perToken: KVBytesPerToken(cfg)},
		chunkTokens: chunkTokens,
	}
	c.grow = c.addChunk
	return c
}

// Name implements CacheManager.
func (c *ChunkedKV) Name() string { return "chunked" }

// Admit implements CacheManager.
func (c *ChunkedKV) Admit(r Request) (SeqHandle, error) {
	if err := checkPrompt(&r); err != nil {
		return 0, err
	}
	buf, err := c.alloc.Alloc(int64(r.PromptLen) * c.perToken)
	if err != nil {
		return 0, err
	}
	h, s := c.open(r.PromptLen)
	c.hold(s, buf, r.PromptLen)
	return h, nil
}

// addChunk is the chunked growth body: one more decode chunk from the
// allocator.
func (c *ChunkedKV) addChunk(s *kvSeq) error {
	buf, err := c.alloc.Alloc(int64(c.chunkTokens) * c.perToken)
	if err != nil {
		return err
	}
	c.hold(s, buf, c.chunkTokens)
	return nil
}
