package parallel

import (
	"testing"

	"repro/internal/model"
)

func TestTPValidate(t *testing.T) {
	if err := (TPConfig{Degree: 8}).Validate(model.OPT13B); err != nil {
		t.Fatalf("degree 8 on 40 heads/5120 hidden rejected: %v", err)
	}
	if err := (TPConfig{Degree: 0}).Validate(model.OPT13B); err == nil {
		t.Fatal("degree 0 accepted")
	}
	if err := (TPConfig{Degree: 3}).Validate(model.OPT13B); err == nil {
		t.Fatal("degree 3 does not divide 40 heads but was accepted")
	}
	// GPT-2 has 25 heads: degree 5 divides heads and hidden (1600).
	if err := (TPConfig{Degree: 5}).Validate(model.GPT2); err != nil {
		t.Fatalf("degree 5 on GPT-2: %v", err)
	}
}

func TestShardLayerSumsToWholeLayer(t *testing.T) {
	for _, degree := range []int{1, 2, 4, 8} {
		shard, err := TPConfig{Degree: degree}.ShardLayer(model.OPT13B)
		if err != nil {
			t.Fatal(err)
		}
		h := int64(model.OPT13B.Hidden)
		matrices := 12 * h * h * model.DTypeBytes // 3+1+4+4 H² weights
		norms := 13 * h * model.DTypeBytes
		gotMatrices := shard.AttnQKV + shard.AttnProj + shard.MLPUp + shard.MLPDown
		if int64(degree)*gotMatrices != matrices {
			t.Fatalf("degree %d: matrix shards %d × %d ≠ %d", degree, degree, gotMatrices, matrices)
		}
		if shard.Norms != norms {
			t.Fatalf("degree %d: norms %d not replicated (%d)", degree, shard.Norms, norms)
		}
		// Whole layer matches the model package's own count at degree 1.
		if degree == 1 && shard.Bytes() != model.OPT13B.LayerParamBytes() {
			t.Fatalf("degree-1 shard %d ≠ LayerParamBytes %d", shard.Bytes(), model.OPT13B.LayerParamBytes())
		}
	}
}

func TestShardLayerRejectsBadDegree(t *testing.T) {
	if _, err := (TPConfig{Degree: 7}).ShardLayer(model.OPT13B); err == nil {
		t.Fatal("degree 7 accepted")
	}
}

func TestActivationBytesShrinkInteriorOnly(t *testing.T) {
	cfg, batch, seq := model.OPT13B, 8, 512
	full := TPConfig{Degree: 1}.ActivationBytes(cfg, batch, seq)
	if full != cfg.ActivationBytesPerLayer(batch, seq) {
		t.Fatalf("degree-1 activations %d ≠ model's %d", full, cfg.ActivationBytesPerLayer(batch, seq))
	}
	half := TPConfig{Degree: 2}.ActivationBytes(cfg, batch, seq)
	if half >= full {
		t.Fatal("degree 2 did not shrink activations")
	}
	boundary := int64(batch) * int64(seq) * int64(cfg.Hidden) * model.DTypeBytes
	if half < 2*boundary {
		t.Fatal("boundary activations must stay replicated")
	}
}
