package workload

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/memalloc"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sim"
)

// Trainer drives one allocator through the allocation stream of fine-tuning
// one model under one Spec. It models the tensor lifetimes that matter to
// the allocator:
//
//   - Persistent state from Setup: fp16 parameter shards, gradient shards
//     and Adam state shards (ZeRO-3 partitioned across the world; optimizer
//     state absent with Offload, adapter-only with LoRA).
//   - Per-step forward: one all-gathered full parameter group per platform
//     gather unit (double-buffered, freed as the next arrives), plus either
//     full saved activations or checkpoints + transient working buffers.
//   - Per-step backward: gathers again, recomputes when checkpointing,
//     allocates transient activation gradients and full weight gradients
//     (reduce-scattered and freed), releases saved activations layer by
//     layer.
//   - Optimizer phase: in-place update, or PCIe-staged buffers with Offload.
//
// Transient tensor sizes and the per-step sequence length are drawn from
// small recurring bucket sets whose cardinality grows with the strategy's
// complexity, and logically-dead transients linger in a bounded asynchronous
// release window — reproducing the paper's observation that these strategies
// make the request stream frequent, small and irregular, while preserving
// the shape recurrence that real training exhibits.
type Trainer struct {
	spec    Spec
	alloc   memalloc.Allocator
	clock   *sim.Clock
	rng     *sim.RNG // draws each step's shape bucket
	compute computeModel

	// stepRNG drives all within-step choices (size variants, async release
	// order). It is reseeded from the step's shape bucket so that steps with
	// the same bucket replay byte-identical request streams: the recurrence
	// GMLake's stitched-block cache converges on (§5.4), while the caching
	// allocator still pays each bucket's worst-case packing.
	stepRNG *sim.RNG

	// Persistent buffers (Setup → Teardown) and their requested bytes.
	persistent      []*memalloc.Buffer
	persistentBytes int64

	// Per-step live buffers, tracked for cleanup on OOM.
	stepLive map[*memalloc.Buffer]struct{}

	// deferred holds transient buffers whose free is delayed, modelling the
	// asynchronous, out-of-order releases that offloading and multi-stream
	// execution introduce. Deferred buffers pin addresses while logically
	// dead — the interleaving that fragments the caching allocator.
	deferred []*memalloc.Buffer
	// working is transientWorkingSet's scratch list, emptied after each use.
	working []*memalloc.Buffer

	timeline  *metrics.Timeline
	steps     int
	setupDone bool
}

// NewTrainer builds a trainer for spec over alloc, charging time to clock.
func NewTrainer(spec Spec, alloc memalloc.Allocator, clock *sim.Clock) (*Trainer, error) {
	spec, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	return &Trainer{
		spec:     spec,
		alloc:    alloc,
		clock:    clock,
		rng:      sim.NewRNG(spec.Seed),
		compute:  computeModel{spec: spec},
		stepLive: make(map[*memalloc.Buffer]struct{}),
	}, nil
}

// Steps returns the number of completed steps.
func (t *Trainer) Steps() int { return t.steps }

// SetTimeline attaches a timeline that records (time, active, reserved)
// samples at phase boundaries and after every step-transient allocation:
// active and reserved bytes only rise inside an allocation, so the
// timeline's peaks are the run's.
func (t *Trainer) SetTimeline(tl *metrics.Timeline) { t.timeline = tl }

func (t *Trainer) sample() {
	if t.timeline == nil {
		return
	}
	st := t.alloc.Stats()
	t.timeline.Record(t.clock.Now(), st.Active, st.Reserved)
}

// Setup allocates the persistent training state.
func (t *Trainer) Setup() error {
	if t.setupDone {
		return fmt.Errorf("workload: Setup called twice")
	}
	s := t.spec
	m := s.Model
	world := s.World

	// fp16 parameter shards, one per block plus the embedding.
	for l := 0; l < m.Layers; l++ {
		if err := t.persist(model.ShardBytes(m.LayerParamBytes(), world)); err != nil {
			return err
		}
	}
	if err := t.persist(model.ShardBytes(m.EmbeddingBytes(), world)); err != nil {
		return err
	}

	if s.Strategy.LoRA {
		// Adapter parameters, gradients and optimizer state: two rank-r
		// matrices per attention and MLP projection, per layer. Small.
		adapterBytes := t.adapterBytesPerLayer()
		for l := 0; l < m.Layers; l++ {
			if err := t.persist(adapterBytes); err != nil { // weights
				return err
			}
			if err := t.persist(adapterBytes); err != nil { // grads
				return err
			}
			if !s.Strategy.Offload {
				if err := t.persist(adapterBytes * 6); err != nil { // fp32 Adam
					return err
				}
			}
		}
	} else {
		// Full fine-tuning: fp16 gradient shards and fp32 Adam shards.
		for l := 0; l < m.Layers; l++ {
			if err := t.persist(model.ShardBytes(m.LayerParamBytes(), world)); err != nil {
				return err
			}
		}
		if err := t.persist(model.ShardBytes(m.EmbeddingBytes(), world)); err != nil {
			return err
		}
		if !s.Strategy.Offload {
			optBytes := model.ShardBytes(m.LayerParams()*model.OptimBytesPerParam, world)
			for l := 0; l < m.Layers; l++ {
				if err := t.persist(optBytes); err != nil {
					return err
				}
			}
			if err := t.persist(model.ShardBytes(m.EmbeddingParams()*model.OptimBytesPerParam, world)); err != nil {
				return err
			}
		}
	}
	t.setupDone = true
	t.sample()
	return nil
}

func (t *Trainer) persist(size int64) error {
	b, err := t.alloc.Alloc(size)
	if err != nil {
		return fmt.Errorf("workload: setup: %w", err)
	}
	t.persistent = append(t.persistent, b)
	t.persistentBytes += size
	return nil
}

func (t *Trainer) adapterBytesPerLayer() int64 {
	m := t.spec.Model
	// Four projection sites per block, each with down (H×r) and up (r×H).
	return int64(4*2*t.spec.LoRARank) * int64(m.Hidden) * model.DTypeBytes
}

// stepAlloc allocates a per-step transient buffer, tracking it for OOM
// cleanup, and samples the timeline after it.
func (t *Trainer) stepAlloc(size int64) (*memalloc.Buffer, error) {
	b, err := t.alloc.Alloc(size)
	if err != nil {
		return nil, err
	}
	t.stepLive[b] = struct{}{}
	t.sample()
	return b, nil
}

func (t *Trainer) stepFree(b *memalloc.Buffer) {
	delete(t.stepLive, b)
	t.alloc.Free(b)
}

// abortStep frees every step-transient buffer after an OOM.
func (t *Trainer) abortStep() {
	t.deferred = t.deferred[:0]
	t.freeStepLive()
}

// freeStepLive frees the step-transient buffers in ascending address order,
// so the allocator sees the same Free sequence on every run — not the map's
// iteration order.
func (t *Trainer) freeStepLive() {
	live := make([]*memalloc.Buffer, 0, len(t.stepLive))
	for b := range t.stepLive {
		live = append(live, b)
	}
	slices.SortFunc(live, func(a, b *memalloc.Buffer) int { return cmp.Compare(a.Ptr, b.Ptr) })
	for _, b := range live {
		t.alloc.Free(b)
	}
	clear(t.stepLive)
}

// deferWindow is how many logically-dead transient buffers stay pinned
// awaiting their asynchronous release. Plain synchronous training frees
// immediately; each optimization adds asynchrony (offloading most of all).
func (t *Trainer) deferWindow() int {
	w := 0
	if t.spec.Strategy.Recompute {
		w += 8
	}
	if t.spec.Strategy.LoRA {
		w += 4
	}
	if t.spec.Strategy.Offload {
		w += 12
	}
	return w
}

// deferFree releases b now under synchronous execution, or queues it and
// releases an arbitrary older deferred buffer once the window is full.
func (t *Trainer) deferFree(b *memalloc.Buffer) {
	w := t.deferWindow()
	if w == 0 {
		t.stepFree(b)
		return
	}
	t.deferred = append(t.deferred, b)
	for len(t.deferred) > w {
		// Releases complete out of order: drop a pseudo-random pending one.
		i := t.stepRNG.Intn(len(t.deferred))
		t.stepFree(t.deferred[i])
		t.deferred = append(t.deferred[:i], t.deferred[i+1:]...)
	}
}

// drainDeferred completes all pending asynchronous releases (a stream
// synchronization point).
func (t *Trainer) drainDeferred() {
	for _, b := range t.deferred {
		t.stepFree(b)
	}
	t.deferred = t.deferred[:0]
}

// sizeVariantFactors are the recurring scale factors applied to transient
// buffers (working sets, offload staging buckets). Real training shapes
// recur from a finite vocabulary — dynamic batching buckets, bucketed
// gradient fusion — rather than varying continuously; the allocator sees a
// diverse but repeating size-class population. The diversity is what
// fragments the caching allocator (each class pins its own segments at its
// own peak), while the recurrence is what lets GMLake's stitched-block cache
// converge (paper §5.4).
var sizeVariantFactors = []float64{1.0, 1.125, 0.875, 1.25}

// sizeVariant picks a recurring variant of a transient size.
func (t *Trainer) sizeVariant(size int64) int64 {
	n := t.variantCount()
	if n <= 1 {
		return size
	}
	f := sizeVariantFactors[t.stepRNG.Intn(n)]
	return sim.RoundUp(int64(f*float64(size)), 512)
}

// variantCount maps strategy complexity to size-class diversity: each
// optimization adds one recurring variant (paper Observation 1).
func (t *Trainer) variantCount() int {
	n := 1
	if t.spec.Strategy.Recompute {
		n++
	}
	if t.spec.Strategy.LoRA {
		n++
	}
	if t.spec.Strategy.Offload {
		n++
	}
	return n
}

// seqBucketFactors are the recurring sequence-length buckets of dynamic
// batching.
var seqBucketFactors = []float64{1.0, 0.875, 0.75, 0.625}

// stepSeq returns this step's sequence length: fixed for plain training
// (batches padded to maximum length), drawn from recurring buckets when any
// optimization enables dynamic shapes.
func (t *Trainer) stepSeq() int {
	base := t.spec.SeqLen
	n := t.variantCount()
	if n <= 1 {
		t.stepRNG = sim.NewRNG(t.spec.Seed)
		return base
	}
	bucket := t.rng.Intn(n)
	// Same bucket => same within-step stream, across all steps.
	t.stepRNG = sim.NewRNG(t.spec.Seed ^ (uint64(bucket)+1)*0x9e3779b97f4a7c15)
	f := seqBucketFactors[bucket]
	seq := int(f * float64(base))
	seq -= seq % 16
	if seq < 16 {
		seq = 16
	}
	return seq
}

// Step runs one training iteration. On out-of-memory the timeline records
// the failing instant, every step-transient buffer is freed and the error
// returned; persistent state stays valid so the harness can report OOM and
// tear down cleanly.
func (t *Trainer) Step() error {
	if !t.setupDone {
		return fmt.Errorf("workload: Step before Setup")
	}
	if err := t.step(); err != nil {
		t.sample()
		t.abortStep()
		return err
	}
	t.steps++
	return nil
}

func (t *Trainer) step() error {
	s := t.spec
	m := s.Model
	seq := t.stepSeq()

	saved := make([]*memalloc.Buffer, 0, m.Layers) // activations or checkpoints
	adapterActs := make([]*memalloc.Buffer, 0, m.Layers)

	// ---- Forward ----
	var gathered *memalloc.Buffer
	gatherUnit := s.Platform.gatherLayers()
	gatherBytes := m.LayerParamBytes() * int64(gatherUnit)
	if s.Platform == ColossalAI {
		// Chunk-based: gathers happen in fixed 64 MiB chunks; the unit
		// materialized per block is rounded up to whole chunks.
		gatherBytes = sim.RoundUp(m.LayerParamBytes(), 64*sim.MiB)
	}

	for l := 0; l < m.Layers; l++ {
		// All-gather the parameter group (ZeRO-3). Double-buffered:
		// allocate the next group before freeing the previous.
		if l%gatherUnit == 0 && s.World > 1 {
			next, err := t.stepAlloc(gatherBytes)
			if err != nil {
				return err
			}
			t.clock.Advance(t.compute.gatherTime(gatherBytes))
			if gathered != nil {
				t.stepFree(gathered)
			}
			gathered = next
		}

		if s.Strategy.Recompute {
			// Keep only the checkpoint; working activations are
			// transient inside the layer.
			ck, err := t.stepAlloc(m.CheckpointBytesPerLayer(s.Batch, seq))
			if err != nil {
				return err
			}
			saved = append(saved, ck)
			if err := t.transientWorkingSet(seq, 4); err != nil {
				return err
			}
		} else {
			act, err := t.stepAlloc(m.ActivationBytesPerLayer(s.Batch, seq))
			if err != nil {
				return err
			}
			saved = append(saved, act)
		}

		if s.Strategy.LoRA {
			// Adapter input activations are retained for the adapter
			// backward; two small tensors per block.
			aa, err := t.stepAlloc(t.loraActBytes(seq))
			if err != nil {
				return err
			}
			adapterActs = append(adapterActs, aa)
		}
		t.clock.Advance(t.compute.layerForward(seq))
	}
	if gathered != nil {
		t.stepFree(gathered)
		gathered = nil
	}
	t.sample()

	// LM head: logits plus a softmax/loss temporary of the same size.
	logits, err := t.stepAlloc(m.LogitsBytes(s.Batch, seq))
	if err != nil {
		return err
	}
	lossTmp, err := t.stepAlloc(m.LogitsBytes(s.Batch, seq))
	if err != nil {
		return err
	}
	t.clock.Advance(t.compute.headTime(seq))
	t.deferFree(lossTmp)

	// ---- Backward ----
	// Gradient w.r.t. logits replaces the logits buffer.
	dlogits, err := t.stepAlloc(m.LogitsBytes(s.Batch, seq))
	if err != nil {
		return err
	}
	t.stepFree(logits)

	// Flowing activation gradient, double-buffered across layers.
	gradBytes := int64(s.Batch) * int64(seq) * int64(m.Hidden) * model.DTypeBytes
	dflow, err := t.stepAlloc(gradBytes)
	if err != nil {
		return err
	}
	t.stepFree(dlogits)

	for l := m.Layers - 1; l >= 0; l-- {
		if l%gatherUnit == 0 && s.World > 1 {
			next, err := t.stepAlloc(gatherBytes)
			if err != nil {
				return err
			}
			t.clock.Advance(t.compute.gatherTime(gatherBytes))
			if gathered != nil {
				t.stepFree(gathered)
			}
			gathered = next
		}

		if s.Strategy.Recompute {
			// Recompute the layer's activations before differentiating.
			if err := t.transientWorkingSet(seq, 4); err != nil {
				return err
			}
		}

		// Next flowing gradient (output of this layer's backward).
		dnext, err := t.stepAlloc(gradBytes)
		if err != nil {
			return err
		}

		if s.Strategy.LoRA {
			// Adapter gradients: small transient pair, reduced into the
			// persistent adapter grad buffers.
			ag, err := t.stepAlloc(t.adapterBytesPerLayer())
			if err != nil {
				return err
			}
			t.clock.Advance(t.compute.reduceTime(t.adapterBytesPerLayer()))
			t.deferFree(ag)
			t.deferFree(adapterActs[l])
		} else {
			// Full weight gradients for the gathered group, then
			// reduce-scatter into the shard and free.
			wg, err := t.stepAlloc(m.LayerParamBytes())
			if err != nil {
				return err
			}
			t.clock.Advance(t.compute.reduceTime(m.LayerParamBytes()))
			t.deferFree(wg)
		}

		// Saved activations / checkpoint for this layer are now consumed.
		t.stepFree(saved[l])
		t.stepFree(dflow)
		dflow = dnext
		t.clock.Advance(t.compute.layerBackward(seq))
	}
	t.stepFree(dflow)
	if gathered != nil {
		t.stepFree(gathered)
	}
	t.sample()

	// ---- Optimizer ----
	if s.Strategy.Offload {
		// ZeRO-Offload: gradients stream to host, updated parameters
		// stream back through per-layer staging buffers whose bucket
		// sizes vary with accumulated padding.
		stageBase := model.ShardBytes(m.LayerParamBytes(), s.World)
		if s.Strategy.LoRA {
			stageBase = t.adapterBytesPerLayer()
		}
		for l := 0; l < m.Layers; l++ {
			stage, err := t.stepAlloc(t.sizeVariant(stageBase * 2))
			if err != nil {
				return err
			}
			t.clock.Advance(t.compute.offloadTime(stageBase * 2))
			t.deferFree(stage)
		}
	} else {
		params := m.Params() / int64(s.World)
		if s.Strategy.LoRA {
			params = int64(m.Layers) * t.adapterBytesPerLayer() / model.DTypeBytes
		}
		t.clock.Advance(t.compute.optimizerTime(params))
	}
	t.drainDeferred()
	t.sample()
	return nil
}

// transientWorkingSet allocates and frees n working tensors covering one
// layer's recomputed activations — the frequent small churn recomputation
// introduces (paper §2.3).
func (t *Trainer) transientWorkingSet(seq, n int) error {
	m := t.spec.Model
	total := m.ActivationBytesPerLayer(t.spec.Batch, seq)
	bufs := t.working[:0]
	var err error
	for i := 0; i < n && err == nil; i++ {
		var b *memalloc.Buffer
		if b, err = t.stepAlloc(t.sizeVariant(total / int64(n))); err == nil {
			bufs = append(bufs, b)
		}
	}
	for _, b := range bufs {
		if err != nil {
			t.stepFree(b)
		} else {
			t.deferFree(b)
		}
	}
	clear(bufs)
	t.working = bufs[:0]
	return err
}

// loraActBytes sizes the retained adapter activations per block.
func (t *Trainer) loraActBytes(seq int) int64 {
	return int64(t.spec.Batch) * int64(seq) * int64(4*t.spec.LoRARank) * model.DTypeBytes
}

// Teardown frees persistent state. Safe after OOM'd steps.
func (t *Trainer) Teardown() {
	t.freeStepLive()
	for _, b := range t.persistent {
		t.alloc.Free(b)
	}
	t.persistent, t.persistentBytes = nil, 0
	t.setupDone = false
}

// PersistentBytes reports the bytes requested for the state held between
// steps.
func (t *Trainer) PersistentBytes() int64 { return t.persistentBytes }

// EstimatedStepCompute returns the compute-only lower bound for one step.
func (t *Trainer) EstimatedStepCompute() time.Duration {
	return t.compute.stepComputeLowerBound(t.spec.SeqLen)
}
