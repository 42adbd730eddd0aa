package reqtrace

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/caching"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/memalloc"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/servegen"
	"repro/internal/sim"
)

func newServeAlloc(capacity int64) memalloc.Allocator {
	dev := gpu.NewDevice("t", capacity)
	return caching.New(cuda.NewDriver(dev, sim.NewClock(), sim.DefaultCostModel()))
}

func chunkedMgr(capacity int64) serve.CacheManager {
	return serve.NewChunkedKV(newServeAlloc(capacity), model.OPT1_3B, 64)
}

// TestServeRoundTripByteIdentical is the tentpole acceptance at serve
// level, for every canonical mix: generate → serve with a capture hook →
// trace → file → replay → serve again renders a byte-identical report.
func TestServeRoundTripByteIdentical(t *testing.T) {
	n := 120
	if testing.Short() {
		n = 60
	}
	for _, mix := range servegen.Mixes() {
		t.Run(mix.Name, func(t *testing.T) {
			reqs, err := mix.Generate(n, 7)
			if err != nil {
				t.Fatal(err)
			}
			cap := NewCapture()
			base, err := serve.Serve(reqs, chunkedMgr(8*sim.GiB), serve.ServerConfig{
				MaxBatch: 8, OnComplete: cap.Hook(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if cap.Count() != n {
				t.Fatalf("captured %d of %d completions", cap.Count(), n)
			}

			// Through the wire: write, read back, replay.
			var buf bytes.Buffer
			if err := cap.Trace().WriteJSONL(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			replayed, err := loaded.Replay(ReplayOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(replayed, reqs) {
				t.Fatal("replayed stream differs from the generated one")
			}

			again, err := serve.Serve(replayed, chunkedMgr(8*sim.GiB), serve.ServerConfig{MaxBatch: 8})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again, base) {
				t.Fatalf("replayed serving report differs:\n%+v\nvs\n%+v", again, base)
			}
		})
	}
}

// TestClusterRoundTripByteIdentical repeats the round trip at cluster level
// with the whole elastic machinery on — autoscaling between 1 and 3
// replicas plus work-stealing — so completions interleave across replicas
// in an order the capture must canonicalize away.
func TestClusterRoundTripByteIdentical(t *testing.T) {
	n := 120
	if testing.Short() {
		n = 60
	}
	mix := servegen.MixedBursty()
	reqs, err := mix.WithRate(mix.Rate*4).Generate(n, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := serve.ClusterConfig{
		MinReplicas: 1,
		MaxReplicas: 3,
		Steal:       true,
		Dispatch:    serve.DispatchJSQ,
		Server:      serve.ServerConfig{MaxBatch: 4, Aging: 2 * time.Second},
	}
	mk := func(int) serve.CacheManager { return chunkedMgr(2 * sim.GiB) }

	cap := NewCapture()
	capCfg := cfg
	capCfg.Server.OnComplete = cap.Hook()
	base, err := serve.ServeCluster(reqs, mk, capCfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.Spawns == 0 {
		t.Fatal("test workload never scaled up — not exercising elasticity")
	}
	if cap.Count() != n {
		t.Fatalf("captured %d of %d completions", cap.Count(), n)
	}

	replayed, err := cap.Trace().Replay(ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed, reqs) {
		t.Fatal("cluster-captured replay differs from the generated stream")
	}
	again, err := serve.ServeCluster(replayed, mk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, base) {
		t.Fatal("replayed cluster report differs from the original")
	}
}

// TestCaptureCanonicalOrder: a capture fed completions in an arbitrary
// order still produces the arrival-sorted trace.
func TestCaptureCanonicalOrder(t *testing.T) {
	cap := NewCapture()
	hook := cap.Hook()
	hook(serve.Request{ID: 2, ArrivalAt: 30, PromptLen: 1, OutputLen: 1})
	hook(serve.Request{ID: 0, ArrivalAt: 10, PromptLen: 1, OutputLen: 1})
	hook(serve.Request{ID: 1, ArrivalAt: 10, PromptLen: 2, OutputLen: 1})
	tr := cap.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Records[0].ArrivalAt != 10 || tr.Records[0].PromptLen != 1 ||
		tr.Records[1].ArrivalAt != 10 || tr.Records[1].PromptLen != 2 ||
		tr.Records[2].ArrivalAt != 30 {
		t.Fatalf("capture did not canonicalize: %+v", tr.Records)
	}
}
