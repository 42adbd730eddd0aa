package serve

import (
	"fmt"

	"repro/internal/cuda"
	"repro/internal/memalloc"
	"repro/internal/model"
)

// ContiguousKV is the pad-to-maximum baseline vLLM replaced: every admitted
// request gets one contiguous buffer sized for the model's maximum sequence
// length, whatever it ends up generating. Internal waste is the unused tail.
type ContiguousKV struct {
	alloc      memalloc.Allocator
	perToken   int64
	maxTokens  int
	next       SeqHandle
	sequences  map[SeqHandle]*contigSeq
	usedBytes  int64
	logicalTok int64
}

type contigSeq struct {
	buf    *memalloc.Buffer
	tokens int
}

// NewContiguousKV builds the pad-to-max manager for cfg, growing sequences
// up to maxTokens.
func NewContiguousKV(alloc memalloc.Allocator, cfg model.Config, maxTokens int) *ContiguousKV {
	return &ContiguousKV{
		alloc:     alloc,
		perToken:  KVBytesPerToken(cfg),
		maxTokens: maxTokens,
		sequences: make(map[SeqHandle]*contigSeq),
	}
}

// Name implements CacheManager.
func (c *ContiguousKV) Name() string { return "contiguous" }

// Admit implements CacheManager.
func (c *ContiguousKV) Admit(r Request) (SeqHandle, error) {
	if r.PromptLen <= 0 {
		return 0, fmt.Errorf("serve: request %d has %d prompt tokens", r.ID, r.PromptLen)
	}
	if r.TotalTokens() > c.maxTokens {
		return 0, fmt.Errorf("serve: request %d needs %d tokens, max %d", r.ID, r.TotalTokens(), c.maxTokens)
	}
	buf, err := c.alloc.Alloc(int64(c.maxTokens) * c.perToken)
	if err != nil {
		return 0, err
	}
	c.next++
	c.sequences[c.next] = &contigSeq{buf: buf, tokens: r.PromptLen}
	c.usedBytes += buf.BlockSize
	c.logicalTok += int64(r.PromptLen)
	return c.next, nil
}

// Append implements CacheManager.
func (c *ContiguousKV) Append(h SeqHandle) error {
	s, ok := c.sequences[h]
	if !ok {
		return fmt.Errorf("serve: unknown sequence %d", h)
	}
	if s.tokens >= c.maxTokens {
		return fmt.Errorf("serve: sequence %d exceeded max tokens", h)
	}
	s.tokens++
	c.logicalTok++
	return nil
}

// Release implements CacheManager.
func (c *ContiguousKV) Release(h SeqHandle) {
	s, ok := c.sequences[h]
	if !ok {
		return
	}
	c.usedBytes -= s.buf.BlockSize
	c.logicalTok -= int64(s.tokens)
	c.alloc.Free(s.buf)
	delete(c.sequences, h)
}

// UsedBytes implements CacheManager.
func (c *ContiguousKV) UsedBytes() int64 { return c.usedBytes }

// LogicalBytes implements CacheManager.
func (c *ContiguousKV) LogicalBytes() int64 { return c.logicalTok * c.perToken }

// PagedKV is the vLLM policy: the KV region is pre-allocated once and carved
// into fixed blocks of BlockTokens tokens; sequences hold block lists and
// grow block by block, so waste is bounded by one partial block per
// sequence. This defragments *within* the KV tensor (Table 3's "Tensor"
// scope) but the slab itself is one giant reservation the pool-level
// allocator must satisfy up front.
type PagedKV struct {
	alloc       memalloc.Allocator
	perToken    int64
	blockTokens int
	slab        *memalloc.Buffer
	freeBlocks  []int
	next        SeqHandle
	sequences   map[SeqHandle]*pagedSeq
	logicalTok  int64
	usedBlocks  int
}

type pagedSeq struct {
	blocks []int
	tokens int
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
	return &PagedKV{
		alloc:       alloc,
		perToken:    perToken,
		blockTokens: blockTokens,
		slab:        slab,
		freeBlocks:  free,
		sequences:   make(map[SeqHandle]*pagedSeq),
	}, nil
}

// Name implements CacheManager.
func (p *PagedKV) Name() string { return "paged" }

// Close releases the slab.
func (p *PagedKV) Close() { p.alloc.Free(p.slab) }

func (p *PagedKV) takeBlocks(n int) ([]int, bool) {
	if n > len(p.freeBlocks) {
		return nil, false
	}
	taken := p.freeBlocks[len(p.freeBlocks)-n:]
	p.freeBlocks = p.freeBlocks[:len(p.freeBlocks)-n]
	p.usedBlocks += n
	return taken, true
}

// Admit implements CacheManager.
func (p *PagedKV) Admit(r Request) (SeqHandle, error) {
	if r.PromptLen <= 0 {
		return 0, fmt.Errorf("serve: request %d has %d prompt tokens", r.ID, r.PromptLen)
	}
	need := (r.PromptLen + p.blockTokens - 1) / p.blockTokens
	blocks, ok := p.takeBlocks(need)
	if !ok {
		return 0, fmt.Errorf("serve: %d free blocks, need %d (%w)", len(p.freeBlocks), need, cuda.ErrOutOfMemory)
	}
	p.next++
	p.sequences[p.next] = &pagedSeq{blocks: append([]int(nil), blocks...), tokens: r.PromptLen}
	p.logicalTok += int64(r.PromptLen)
	return p.next, nil
}

// Append implements CacheManager.
func (p *PagedKV) Append(h SeqHandle) error {
	s, ok := p.sequences[h]
	if !ok {
		return fmt.Errorf("serve: unknown sequence %d", h)
	}
	if s.tokens%p.blockTokens == 0 { // current block full (or none yet)
		blocks, ok := p.takeBlocks(1)
		if !ok {
			return fmt.Errorf("serve: out of KV blocks (%w)", cuda.ErrOutOfMemory)
		}
		s.blocks = append(s.blocks, blocks[0])
	}
	s.tokens++
	p.logicalTok++
	return nil
}

// Release implements CacheManager.
func (p *PagedKV) Release(h SeqHandle) {
	s, ok := p.sequences[h]
	if !ok {
		return
	}
	p.freeBlocks = append(p.freeBlocks, s.blocks...)
	p.usedBlocks -= len(s.blocks)
	p.logicalTok -= int64(s.tokens)
	delete(p.sequences, h)
}

// UsedBytes implements CacheManager: blocks held by live sequences.
func (p *PagedKV) UsedBytes() int64 {
	return int64(p.usedBlocks) * int64(p.blockTokens) * p.perToken
}

// LogicalBytes implements CacheManager.
func (p *PagedKV) LogicalBytes() int64 { return p.logicalTok * p.perToken }

// SlabBytes returns the up-front reservation the policy made.
func (p *PagedKV) SlabBytes() int64 { return p.slab.BlockSize }

// ChunkedKV grows each sequence in fixed chunks allocated from an ordinary
// tensor allocator — no custom paging, no pre-reserved slab. The chunks of
// one sequence are not physically contiguous; a real attention kernel needs
// them presented as one tensor, which is exactly what GMLake's virtual
// memory stitching provides for free. Running this manager over the caching
// allocator versus GMLake contrasts pool-level fragmentation on the same
// request stream (the paper's Table 3 scope argument, made executable).
type ChunkedKV struct {
	alloc       memalloc.Allocator
	perToken    int64
	chunkTokens int
	// sequences is a slot table — handle = slot index + 1 — and free is
	// the LIFO of released slots. Reusing slots keeps the table at the
	// live-sequence count (not the stream length) and turns the per-token
	// Append's handle resolution from a map probe into an index, the
	// hottest lookup of a long serving run.
	sequences  []chunkSeq
	free       []SeqHandle
	usedBytes  int64
	logicalTok int64
}

type chunkSeq struct {
	bufs      []*memalloc.Buffer
	tokens    int // 0 marks a vacant slot: live sequences hold ≥ 1 prompt token
	capTokens int // token capacity across all chunks
}

// NewChunkedKV builds the chunk-growing manager with decode chunks of
// chunkTokens tokens. The prompt KV is allocated as one right-sized buffer
// (prefill writes it in one kernel), so prompt-length variability reaches
// the pool allocator directly — the irregular sizing that fragments it.
func NewChunkedKV(alloc memalloc.Allocator, cfg model.Config, chunkTokens int) *ChunkedKV {
	return &ChunkedKV{
		alloc:       alloc,
		perToken:    KVBytesPerToken(cfg),
		chunkTokens: chunkTokens,
	}
}

// seq resolves a handle to its live slot, nil for unknown or released
// handles.
func (c *ChunkedKV) seq(h SeqHandle) *chunkSeq {
	if h <= 0 || int(h) > len(c.sequences) {
		return nil
	}
	s := &c.sequences[h-1]
	if s.tokens == 0 {
		return nil
	}
	return s
}

// Name implements CacheManager.
func (c *ChunkedKV) Name() string { return "chunked" }

func (c *ChunkedKV) grow(s *chunkSeq, tokens int) error {
	buf, err := c.alloc.Alloc(int64(tokens) * c.perToken)
	if err != nil {
		return err
	}
	s.bufs = append(s.bufs, buf)
	s.capTokens += tokens
	c.usedBytes += buf.BlockSize
	return nil
}

// Admit implements CacheManager.
func (c *ChunkedKV) Admit(r Request) (SeqHandle, error) {
	if r.PromptLen <= 0 {
		return 0, fmt.Errorf("serve: request %d has %d prompt tokens", r.ID, r.PromptLen)
	}
	var h SeqHandle
	if n := len(c.free); n > 0 {
		h = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		c.sequences = append(c.sequences, chunkSeq{})
		h = SeqHandle(len(c.sequences))
	}
	s := &c.sequences[h-1]
	if err := c.grow(s, r.PromptLen); err != nil {
		c.free = append(c.free, h)
		return 0, err
	}
	s.tokens = r.PromptLen
	c.logicalTok += int64(r.PromptLen)
	return h, nil
}

// Append implements CacheManager.
func (c *ChunkedKV) Append(h SeqHandle) error {
	s := c.seq(h)
	if s == nil {
		return fmt.Errorf("serve: unknown sequence %d", h)
	}
	if s.tokens == s.capTokens {
		if err := c.grow(s, c.chunkTokens); err != nil {
			return err
		}
	}
	s.tokens++
	c.logicalTok++
	return nil
}

// Release implements CacheManager. The vacated slot keeps the backing array
// of bufs, so the next sequence admitted into it grows without reallocating.
func (c *ChunkedKV) Release(h SeqHandle) {
	s := c.seq(h)
	if s == nil {
		return
	}
	for _, b := range s.bufs {
		c.usedBytes -= b.BlockSize
		c.alloc.Free(b)
	}
	c.logicalTok -= int64(s.tokens)
	clear(s.bufs)
	*s = chunkSeq{bufs: s.bufs[:0]}
	c.free = append(c.free, h)
}

// UsedBytes implements CacheManager.
func (c *ChunkedKV) UsedBytes() int64 { return c.usedBytes }

// LogicalBytes implements CacheManager.
func (c *ChunkedKV) LogicalBytes() int64 { return c.logicalTok * c.perToken }
