package model

import (
	"math"
	"strings"
	"testing"
)

func TestParamCountsMatchNominal(t *testing.T) {
	// Each model's computed parameter count must be within 15% of its
	// advertised size.
	nominal := map[string]float64{
		"GPT-2":        1.5,
		"OPT-1.3B":     1.3,
		"GLM-10B":      10,
		"OPT-13B":      13,
		"Vicuna-13B":   13,
		"GPT-NeoX-20B": 20,
	}
	for _, m := range All {
		want := nominal[m.Name]
		got := m.ParamsBillions()
		if math.Abs(got-want)/want > 0.15 {
			t.Errorf("%s: computed %.2fB params, nominal %.1fB", m.Name, got, want)
		}
	}
}

func TestConfigsSane(t *testing.T) {
	for _, m := range All {
		if err := m.FitsSanity(); err != nil {
			t.Error(err)
		}
	}
}

func TestShardBytes(t *testing.T) {
	tests := []struct {
		total int64
		world int
		want  int64
	}{
		{100, 1, 100},
		{100, 4, 25},
		{101, 4, 26},
		{7, 8, 1},
	}
	for _, tt := range tests {
		if got := ShardBytes(tt.total, tt.world); got != tt.want {
			t.Errorf("ShardBytes(%d, %d) = %d, want %d", tt.total, tt.world, got, tt.want)
		}
	}
}

func TestActivationScaling(t *testing.T) {
	m := OPT13B
	a1 := m.ActivationBytesPerLayer(1, 512)
	a2 := m.ActivationBytesPerLayer(2, 512)
	a3 := m.ActivationBytesPerLayer(1, 1024)
	if a2 != 2*a1 || a3 != 2*a1 {
		t.Fatalf("activation bytes must scale linearly in batch and seq: %d %d %d", a1, a2, a3)
	}
	if ck := m.CheckpointBytesPerLayer(1, 512); ck >= a1 {
		t.Fatalf("checkpoint (%d) not smaller than full activations (%d)", ck, a1)
	}
}

func TestLayerBytes(t *testing.T) {
	m := OPT13B
	// One OPT-13B block is ~315M params, ~630 MB in fp16.
	gotMB := float64(m.LayerParamBytes()) / (1 << 20)
	if gotMB < 550 || gotMB > 700 {
		t.Fatalf("LayerParamBytes = %.0f MB, want ~600 MB", gotMB)
	}
	if m.LogitsBytes(8, 512) != int64(8*512*50272*2) {
		t.Fatal("LogitsBytes mismatch")
	}
}

func TestStringAndEmbeddingBytes(t *testing.T) {
	s := OPT13B.String()
	if !strings.Contains(s, "OPT-13B") || !strings.Contains(s, "layers") {
		t.Fatalf("String = %q", s)
	}
	if got := OPT13B.EmbeddingBytes(); got != OPT13B.EmbeddingParams()*DTypeBytes {
		t.Fatalf("EmbeddingBytes = %d", got)
	}
}

func TestShardBytesRoundsUpAndPanics(t *testing.T) {
	if got := ShardBytes(10, 3); got != 4 {
		t.Fatalf("ShardBytes(10,3) = %d, want 4 (round up)", got)
	}
	if got := ShardBytes(12, 3); got != 4 {
		t.Fatalf("ShardBytes(12,3) = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on world 0")
		}
	}()
	ShardBytes(10, 0)
}

func TestFitsSanityRejectsBrokenConfigs(t *testing.T) {
	broken := []Config{
		{Name: "zero-layers", Hidden: 1024, Heads: 8, Vocab: 1000, SeqLen: 512},
		{Name: "indivisible", Layers: 24, Hidden: 1000, Heads: 7, Vocab: 1000, SeqLen: 512},
		{Name: "tiny", Layers: 1, Hidden: 8, Heads: 2, Vocab: 10, SeqLen: 4},
	}
	for _, c := range broken {
		if err := c.FitsSanity(); err == nil {
			t.Fatalf("%s passed sanity", c.Name)
		}
	}
	for _, c := range All {
		if err := c.FitsSanity(); err != nil {
			t.Fatalf("paper model %s failed sanity: %v", c.Name, err)
		}
	}
}
