package checkpoint

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	syncpol "repro/internal/sync"
)

// fingerprint renders everything Restore can write on ct — every replica's
// weights, velocities, previous weights, update counters and schedule
// position, plus the cursor — with each float as its bit pattern. Capture
// never mutates, so taking a fingerprint leaves ct as it was.
func fingerprint(t testing.TB, ct ClusterTrainer) string {
	t.Helper()
	st, err := Capture(ct, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := fmt.Appendf(nil, "cursor %d %d %d\n", st.Submitted, st.Syncs, st.LastSync)
	for i, r := range st.Replicas {
		b = fmt.Appendf(b, "replica %d step %d\n", i, r.Step)
		b = appendBits(b, "w", r.Weights)
		for s, ss := range r.Stages {
			b = fmt.Appendf(b, "stage %d updates %d\n", s, ss.Updates)
			b = appendBits(b, "v", ss.Velocities)
			b = appendBits(b, "prev", ss.PrevWeights)
		}
	}
	return string(b)
}

func appendBits(b []byte, kind string, bufs []Buffer) []byte {
	for _, buf := range bufs {
		b = append(append(append(b, kind...), ' '), buf.Name...)
		for _, v := range buf.Values {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		b = append(b, '\n')
	}
	return b
}

// forwardView is the fingerprint surface of a network restored with
// RestoreForward: its weights alone.
func forwardView(net *nn.Network) ClusterTrainer { return SGDM(net, nil, new(int)) }

// tinyNet is the fixture architecture, small enough that one fuzz execution
// (decode, two restores, four fingerprints) takes well under a millisecond.
func tinyNet(seed int64) *nn.Network { return models.DeepMLP(3, 4, 2, 2, seed) }

// fixtureData is the small task every fixture trains on.
func fixtureData() *data.Dataset {
	ds, _ := data.GaussianBlobs(3, 2, 16, 0, 1, 0.5, 5)
	return ds
}

// lwpw is the pipeline configuration of the fixtures: LWPw keeps previous
// weights per stage next to the velocities.
func lwpw() core.Config {
	cfg := core.ScaledConfig(0.1, 0.9, 16, 1)
	cfg.Mitigation = core.LWPwDSCD
	return cfg
}

// The fixtures build one trained trainer of each snapshot shape on tinyNet:
// the SGDM reference, an LWPw seq pipeline and an R=2
// avg-every-4 cluster of LWPw seq pipelines.

func sgdmFixture(t testing.TB, seed int64) ClusterTrainer {
	net := tinyNet(seed)
	sgd := core.NewSGDTrainer(net, core.Config{LR: 0.05, Momentum: 0.9}, 8)
	sgd.TrainEpoch(fixtureData(), nil, nil, nil)
	return SGDM(net, sgd.Optimizer(), sgd.StepCounter())
}

func pipelineFixture(t testing.TB, seed int64) ClusterTrainer {
	net := tinyNet(seed)
	tr := core.NewPBTrainer(net, lwpw())
	ds := fixtureData()
	for i := 0; i < ds.Len(); i++ {
		x, y := ds.Sample(i)
		if _, err := tr.Submit(context.Background(), x, y); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	return Pipeline{Net: net, Engine: tr}
}

func clusterFixture(t testing.TB, seed int64) ClusterTrainer {
	cl, err := core.NewCluster([]*nn.Network{tinyNet(seed), tinyNet(seed)}, lwpw(), core.ClusterConfig{Engine: "seq", Policy: syncpol.AvgEvery{K: 4}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	ds := fixtureData()
	feedCluster(t, cl, ds, 0, ds.Len())
	return cl
}

// encode is the gob encoding Write puts on disk.
func encode(t testing.TB, st *State) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// shorten drops the last value of the last buffer (Capture saves buffers in
// parameter order, so that is the last parameter's).
func shorten(bufs []Buffer) bool {
	if len(bufs) == 0 {
		return false
	}
	last := &bufs[len(bufs)-1]
	last.Values = last.Values[:len(last.Values)-1]
	return true
}

// TestRestorePipelineIsAtomic: a snapshot rejected by validation must leave
// the target completely untouched — weights, velocities, previous weights,
// update counters, schedule positions and cursor bit for bit — on every
// restore path. Each row corrupts the snapshot where a mutate-as-you-validate
// implementation would already have written everything before it.
func TestRestorePipelineIsAtomic(t *testing.T) {
	kinds := []struct {
		name    string
		build   func(testing.TB, int64) ClusterTrainer
		forward bool // restore with RestoreForward
	}{
		{"sgdm", sgdmFixture, false},
		{"pipeline", pipelineFixture, false},
		{"cluster", clusterFixture, false},
		{"forward", pipelineFixture, true},
	}
	corruptions := []struct {
		name    string
		corrupt func(st *State, r *Replica) bool // false: nothing to corrupt
	}{
		{"last-param", func(_ *State, r *Replica) bool {
			return shorten(r.Weights)
		}},
		{"last-velocity", func(_ *State, r *Replica) bool {
			for s := len(r.Stages) - 1; s >= 0; s-- {
				if shorten(r.Stages[s].Velocities) {
					return true
				}
			}
			return false
		}},
		{"count", func(st *State, r *Replica) bool {
			if len(st.Replicas) > 1 {
				st.Replicas = st.Replicas[:1]
			} else {
				r.Stages = r.Stages[:len(r.Stages)-1]
			}
			return true
		}},
		{"no-replica", func(st *State, _ *Replica) bool {
			st.Replicas = nil
			return true
		}},
	}
	for _, k := range kinds {
		src := k.build(t, 71)
		good, err := Capture(src, nil)
		if err != nil {
			t.Fatal(err)
		}
		wire := encode(t, good)
		for _, c := range corruptions {
			// RestoreForward reads neither velocities nor stages.
			if k.forward && (c.name == "last-velocity" || c.name == "count") {
				continue
			}
			t.Run(k.name+"/"+c.name, func(t *testing.T) {
				st, err := decode(bytes.NewReader(wire))
				if err != nil {
					t.Fatal(err)
				}
				// RestoreForward reads replica 0; Restore validates every
				// replica, so corrupt the last one.
				r := &st.Replicas[len(st.Replicas)-1]
				if k.forward {
					r = &st.Replicas[0]
				}
				if !c.corrupt(st, r) {
					t.Fatal("fixture has nothing to corrupt")
				}
				dst := k.build(t, 72)
				if k.forward {
					net := dst.ReplicaNet(0)
					before := fingerprint(t, forwardView(net))
					if err := RestoreForward(st, net); err == nil {
						t.Fatal("corrupted snapshot accepted")
					}
					if fingerprint(t, forwardView(net)) != before {
						t.Fatal("rejected forward restore mutated the network")
					}
					return
				}
				before := fingerprint(t, dst)
				if err := Restore(st, dst); err == nil {
					t.Fatal("corrupted snapshot accepted")
				}
				if fingerprint(t, dst) != before {
					t.Fatal("rejected restore mutated the target")
				}
			})
		}
		// Control: the intact snapshot restores and the fingerprint sees it.
		t.Run(k.name+"/intact", func(t *testing.T) {
			st, err := decode(bytes.NewReader(wire))
			if err != nil {
				t.Fatal(err)
			}
			dst := k.build(t, 72)
			if k.forward {
				net := dst.ReplicaNet(0)
				if err := RestoreForward(st, net); err != nil {
					t.Fatal(err)
				}
				if fingerprint(t, forwardView(net)) != fingerprint(t, forwardView(src.ReplicaNet(0))) {
					t.Fatal("forward restore differs from the source weights")
				}
				return
			}
			if err := Restore(st, dst); err != nil {
				t.Fatal(err)
			}
			if fingerprint(t, dst) != fingerprint(t, src) {
				t.Fatal("restored target differs from the source")
			}
		})
	}
}

// seedSnapshots encodes one snapshot of each shape: SGDM, LWPw pipeline and
// R=2 cluster.
func seedSnapshots(t testing.TB) [][]byte {
	var seeds [][]byte
	for _, build := range []func(testing.TB, int64) ClusterTrainer{sgdmFixture, pipelineFixture, clusterFixture} {
		st, err := Capture(build(t, 61), map[string]string{"engine": "fuzz"})
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, encode(t, st))
	}
	return seeds
}

// FuzzRestore drives arbitrary bytes through the one decoder and, when they
// decode, through Restore into a small LWPw seq pipeline (the pipeline seed
// restores into it) and through RestoreForward. Nothing may panic, and a
// rejected snapshot must leave its target bit-unchanged.
func FuzzRestore(f *testing.F) {
	for _, seed := range seedSnapshots(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		st, err := decode(bytes.NewReader(b))
		if err != nil {
			return
		}
		net := tinyNet(62)
		dst := Pipeline{Net: net, Engine: core.NewPBTrainer(net, lwpw())}
		before := fingerprint(t, dst)
		if err := Restore(st, dst); err != nil && fingerprint(t, dst) != before {
			t.Fatalf("rejected restore (%v) mutated the target", err)
		}
		fwd := tinyNet(63)
		before = fingerprint(t, forwardView(fwd))
		if err := RestoreForward(st, fwd); err != nil && fingerprint(t, forwardView(fwd)) != before {
			t.Fatalf("rejected forward restore (%v) mutated the network", err)
		}
	})
}

// TestSeedPrefixesFailToDecode pins that a truncated snapshot is an error,
// not a short decode: every proper prefix of every fuzz seed fails.
func TestSeedPrefixesFailToDecode(t *testing.T) {
	for i, seed := range seedSnapshots(t) {
		if _, err := decode(bytes.NewReader(seed)); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		for n := 0; n < len(seed); n++ {
			if _, err := decode(bytes.NewReader(seed[:n])); err == nil {
				t.Fatalf("seed %d: %d-byte prefix of %d decoded", i, n, len(seed))
			}
		}
	}
}

// TestVersionCut: a snapshot of an earlier layout (here a version-3 file with
// its top-level Weights and Step) is refused with an error naming both
// versions.
func TestVersionCut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v3.ckpt")
	legacy := struct {
		Version int
		Step    int
		Weights map[string][]float64
	}{3, 5, map[string][]float64{"fc0.W": {1, 2}}} // a map, as version 3 wrote
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(legacy); err != nil {
		t.Fatal(err)
	}
	st := &State{Version: 3}
	if err := Write(path, st); err != nil {
		t.Fatal(err)
	}
	for name, read := range map[string]func() (*State, error){
		"legacy layout": func() (*State, error) { return decode(&buf) },
		"version field": func() (*State, error) { return Read(path) },
	} {
		_, err := read()
		if err == nil || !strings.Contains(err.Error(), "version 3") || !strings.Contains(err.Error(), fmt.Sprintf("version %d", Version)) {
			t.Fatalf("%s: got %v, want an error naming versions 3 and %d", name, err, Version)
		}
	}
}

// TestHostileCountFailsFast: a snapshot whose Meta claims 2^28 entries in a
// few bytes must be a decode error, not a multi-gigabyte map allocation
// sized by the untrusted count.
func TestHostileCountFailsFast(t *testing.T) {
	b := encode(t, &State{Version: Version, Meta: map[string]string{"k": "v"}})
	i := bytes.Index(b, []byte{1, 1, 'k', 1, 'v'}) // count 1, "k", "v"
	if i < 0 {
		t.Fatal("Meta entry not found in the encoding")
	}
	copy(b[i:], []byte{0xFC, 0x10, 0, 0, 0}) // count 2^28, same length
	if _, err := decode(bytes.NewReader(b)); err == nil {
		t.Fatal("hostile count decoded")
	}
}
