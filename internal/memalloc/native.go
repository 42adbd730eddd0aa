package memalloc

import "repro/internal/cuda"

// Native is the GPU-vendor native allocator: every Alloc is a cudaMalloc and
// every Free a synchronizing cudaFree. It exists as the paper's §2.2 strawman
// — about 10x slower end to end than the caching allocator — and as the
// simplest possible reference implementation for differential tests.
type Native struct {
	driver  *cuda.Driver
	acct    Accounting
	handles Handles
}

// NewNative returns a native allocator over driver.
func NewNative(driver *cuda.Driver) *Native {
	return &Native{driver: driver}
}

// Name implements Allocator.
func (n *Native) Name() string { return "native" }

// Alloc implements Allocator.
func (n *Native) Alloc(size int64) (*Buffer, error) {
	ptr, err := n.driver.Malloc(size)
	if err != nil {
		return nil, err
	}
	n.acct.OnReserve(size)
	n.acct.OnAlloc(size)
	return n.handles.New(ptr, size, nil), nil
}

// Free implements Allocator.
func (n *Native) Free(b *Buffer) {
	if err := n.driver.Free(b.Ptr); err != nil {
		panic("memalloc: native Free: " + err.Error())
	}
	n.acct.OnFree(b.BlockSize)
	n.acct.OnRelease(b.BlockSize)
}

// Stats implements Allocator.
func (n *Native) Stats() Stats { return n.acct.Stats() }

// EmptyCache implements Allocator. The native allocator holds no cache.
func (n *Native) EmptyCache() {}

// ResetPeaks restarts peak tracking (see Accounting.ResetPeaks).
func (n *Native) ResetPeaks() { n.acct.ResetPeaks() }
