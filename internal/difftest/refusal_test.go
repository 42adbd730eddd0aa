package difftest

import (
	"errors"
	"math"
	"testing"

	"repro/internal/caching"
	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/expandable"
	"repro/internal/gpu"
	"repro/internal/memalloc"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/sim"
)

func refusalDriver(capacity int64) *cuda.Driver {
	return cuda.NewDriver(gpu.NewDevice("refusal", capacity), sim.NewClock(), sim.DefaultCostModel())
}

// mustAlloc returns a.Alloc(size), failing the test on an error.
func mustAlloc(t *testing.T, a memalloc.Allocator, size int64) *memalloc.Buffer {
	t.Helper()
	buf, err := a.Alloc(size)
	if err != nil {
		t.Fatalf("%s.Alloc(%d): %v", a.Name(), size, err)
	}
	return buf
}

// TestRefusalTexts pins every out-of-memory refusal in the stack to its
// exact text, and each to cuda.ErrOutOfMemory: callers match the sentinel,
// and the OOM rows of the CLIs and harness tables print the text.
func TestRefusalTexts(t *testing.T) {
	for _, tc := range []struct {
		name   string
		refuse func(t *testing.T) error
		want   string
	}{
		{"gpu.AllocPhysical", func(t *testing.T) error {
			dev := gpu.NewDevice("refusal", 64*sim.MiB)
			if _, err := dev.AllocPhysical(48 * sim.MiB); err != nil {
				t.Fatal(err)
			}
			_, err := dev.AllocPhysical(32 * sim.MiB)
			return err
		}, "gpu: out of device memory: want 33554432, free 16777216"},

		{"cuda.Malloc", func(t *testing.T) error {
			drv := refusalDriver(64 * sim.MiB)
			if _, err := drv.Malloc(60 * sim.MiB); err != nil {
				t.Fatal(err)
			}
			_, err := drv.Malloc(8 * sim.MiB)
			return err
		}, "gpu: out of device memory: want 8388608, free 4194304"},

		{"cuda.MemCreate", func(t *testing.T) error {
			drv := refusalDriver(64 * sim.MiB)
			if _, err := drv.MemCreate(62 * sim.MiB); err != nil {
				t.Fatal(err)
			}
			_, err := drv.MemCreate(4 * sim.MiB)
			return err
		}, "gpu: out of device memory: want 4194304, free 2097152"},

		{"caching.Alloc/nothing-flushable", func(t *testing.T) error {
			a := caching.New(refusalDriver(100 * sim.MiB))
			mustAlloc(t, a, 80*sim.MiB)
			_, err := a.Alloc(80 * sim.MiB)
			return err
		}, "caching: gpu: out of device memory: want 83886080, free 20971520"},

		{"caching.Alloc/flush-then-fail", func(t *testing.T) error {
			a := caching.New(refusalDriver(100 * sim.MiB))
			a.Free(mustAlloc(t, a, 30*sim.MiB))
			mustAlloc(t, a, 50*sim.MiB)
			_, err := a.Alloc(90 * sim.MiB)
			return err
		}, "caching: gpu: out of device memory: want 94371840, free 52428800"},

		{"core.S5", func(t *testing.T) error {
			a := core.NewDefault(refusalDriver(64 * sim.MiB))
			mustAlloc(t, a, 48*sim.MiB)
			_, err := a.Alloc(32 * sim.MiB)
			return err
		}, "core: S5 out of memory allocating 32MB (deficit 32MB): gpu: out of device memory: want 2097152, free 0"},

		{"serve.PagedKV.Admit", func(t *testing.T) error {
			kv := pagedKV(t, 2)
			if _, err := kv.Admit(serve.Request{ID: 1, PromptLen: 16, OutputLen: 1}); err != nil {
				t.Fatal(err)
			}
			_, err := kv.Admit(serve.Request{ID: 2, PromptLen: 17, OutputLen: 1})
			return err
		}, "serve: 1 free blocks, need 2 (gpu: out of device memory)"},

		{"serve.PagedKV.addBlock", func(t *testing.T) error {
			kv := pagedKV(t, 1)
			h, err := kv.Admit(serve.Request{ID: 1, PromptLen: 16, OutputLen: 2})
			if err != nil {
				t.Fatal(err)
			}
			return kv.Append(h)
		}, "serve: out of KV blocks (gpu: out of device memory)"},

		{"expandable.frontier", func(t *testing.T) error {
			a := expandable.New(refusalDriver(64 * sim.MiB))
			mustAlloc(t, a, 48*sim.MiB)
			_, err := a.Alloc(32 * sim.MiB)
			return err
		}, "expandable: gpu: out of device memory: segment frontier at 50331648 of 67108864"},

		{"compact.frontier", func(t *testing.T) error {
			a := expandable.NewCompact(refusalDriver(64 * sim.MiB))
			mustAlloc(t, a, 48*sim.MiB)
			_, err := a.Alloc(32 * sim.MiB)
			return err
		}, "compact: gpu: out of device memory: segment frontier at 50331648 of 67108864"},

		{"memalloc.TooLargeError", func(t *testing.T) error {
			_, err := core.NewDefault(refusalDriver(64 * sim.MiB)).Alloc(math.MaxInt64)
			return err
		}, "gmlake: Alloc(9223372036854775807) is above the 1125899906842624-byte request limit: gpu: out of device memory"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.refuse(t)
			if err == nil {
				t.Fatal("no refusal")
			}
			if got := err.Error(); got != tc.want {
				t.Errorf("Error() = %q\nwant      %q", got, tc.want)
			}
			if !errors.Is(err, cuda.ErrOutOfMemory) {
				t.Errorf("%q does not wrap cuda.ErrOutOfMemory", err)
			}
		})
	}
}

// pagedKV returns a paged KV manager whose slab holds blocks blocks of 16
// tokens.
func pagedKV(t *testing.T, blocks int) *serve.PagedKV {
	t.Helper()
	kv, err := serve.NewPagedKV(caching.New(refusalDriver(sim.GiB)), model.OPT1_3B, 16, blocks)
	if err != nil {
		t.Fatal(err)
	}
	return kv
}

// TestOversizeRequestRefused: a request above memalloc.MaxAllocSize — up to
// MaxInt64, which rounding used to wrap to a negative size and serve from a
// cached block — is refused by every backend with an out-of-memory error,
// after a 100 MiB alloc and free have left a block cached, and leaves the
// allocator's statistics and invariants as they were. A pool allocator
// refuses it before any rounding and says so with memalloc.TooLargeError.
func TestOversizeRequestRefused(t *testing.T) {
	for _, name := range conf.Backends() {
		for _, size := range []int64{math.MaxInt64, math.MaxInt64 - 511, math.MaxInt64 - 2*sim.MiB, memalloc.MaxAllocSize + 1} {
			a, err := conf.Config{Backend: name}.Build(refusalDriver(4 * sim.GiB))
			if err != nil {
				t.Fatal(err)
			}
			a.Free(mustAlloc(t, a, 100*sim.MiB))
			before := a.Stats()
			buf, err := a.Alloc(size)
			if !errors.Is(err, cuda.ErrOutOfMemory) || buf != nil {
				t.Fatalf("%s.Alloc(%d) = %v, %v; want an out-of-memory refusal", name, size, buf, err)
			}
			var tooLarge *memalloc.TooLargeError
			if name != "native" && !errors.As(err, &tooLarge) {
				t.Errorf("%s.Alloc(%d): %v, want a memalloc.TooLargeError", name, size, err)
			}
			if after := a.Stats(); after != before {
				t.Errorf("%s.Alloc(%d) moved the statistics: %+v, then %+v", name, size, before, after)
			}
			if c, ok := a.(interface{ CheckInvariants() error }); ok {
				if err := c.CheckInvariants(); err != nil {
					t.Errorf("%s.Alloc(%d): %v", name, size, err)
				}
			}
		}
	}
}
