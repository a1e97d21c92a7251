package checkpoint

import (
	"path/filepath"
	"testing"

	"repro/internal/models"
	"repro/internal/tensor"
)

// TestForwardRestoreNarrowsToF32 pins the f64→f32 conversion path an f32
// server exercises: checkpoints stay canonical float64 on disk, and loading
// one into an f32 network narrows each value through Param.SetData. The
// narrowing must be the direct float32 cast of the stored f64 value —
// bit-for-bit, which is stronger than the 1-ULP acceptance bound — and the
// restored network must keep f32 layout (dtype, shapes, backing lengths).
func TestForwardRestoreNarrowsToF32(t *testing.T) {
	src := models.DeepMLP(6, 10, 3, 4, 77)
	path := filepath.Join(t.TempDir(), "ck.bin")
	if err := Save(path, src, nil, 5, map[string]string{"engine": "seq"}); err != nil {
		t.Fatal(err)
	}

	// A differently seeded twin, converted to f32 before the load, so every
	// restored value provably came from the snapshot.
	dst := models.DeepMLP(6, 10, 3, 4, 1234)
	dst.ConvertTo(tensor.F32)
	st, err := LoadForward(path, dst)
	if err != nil {
		t.Fatal(err)
	}
	if st.Replicas[0].Step != 5 || st.Meta["engine"] != "seq" {
		t.Fatalf("metadata lost: %+v", st)
	}

	ps, pd := src.Params(), dst.Params()
	if len(ps) != len(pd) {
		t.Fatalf("param count %d, want %d", len(pd), len(ps))
	}
	for i := range ps {
		w := pd[i].W
		if w.DType() != tensor.F32 {
			t.Fatalf("%s: restore changed dtype to %s", pd[i].Name, w.DType())
		}
		if !w.SameShape(ps[i].W) {
			t.Fatalf("%s: shape %v, want %v", pd[i].Name, w.Shape, ps[i].W.Shape)
		}
		got := w.Data32()
		if len(got) != ps[i].W.Size() {
			t.Fatalf("%s: backing length %d, want %d", pd[i].Name, len(got), ps[i].W.Size())
		}
		for j, v := range ps[i].W.Data {
			if got[j] != float32(v) {
				t.Fatalf("%s[%d]: restored %v, want float32(%v) = %v", pd[i].Name, j, got[j], v, float32(v))
			}
		}
	}
}

// TestF32SnapshotWidensToCanonicalF64 is the reverse direction: capturing an
// f32 network produces the canonical f64 exchange format (each value the
// exact widening of the stored float32), so an f32 training run's
// checkpoints remain loadable by every f64 consumer.
func TestF32SnapshotWidensToCanonicalF64(t *testing.T) {
	net := models.DeepMLP(6, 10, 3, 4, 78)
	net.ConvertTo(tensor.F32)
	step := 0
	st, err := Capture(SGDM(net, nil, &step), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range net.Params() {
		if name := st.Replicas[0].Weights[i].Name; name != p.Name {
			t.Fatalf("snapshot buffer %d is %s, want %s", i, name, p.Name)
		}
		got := st.Replicas[0].Weights[i].Values
		w := p.W.Data32()
		if len(got) != len(w) {
			t.Fatalf("%s: snapshot length %d, want %d", p.Name, len(got), len(w))
		}
		for j, v := range got {
			if v != float64(w[j]) {
				t.Fatalf("%s[%d]: snapshot %v, want float64(%v)", p.Name, j, v, w[j])
			}
		}
	}
}
