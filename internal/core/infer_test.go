package core

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// inferModel couples a Builder-shaped constructor with its input shape so the
// bit-exactness matrix covers both the plain MLP stages and the skip-carrying
// ResNet blocks.
type inferModel struct {
	name  string
	build func(seed int64) *nn.Network
	shape []int // per-sample
}

func inferModels() []inferModel {
	return []inferModel{
		{
			name:  "mlp",
			build: func(seed int64) *nn.Network { return models.DeepMLP(8, 12, 3, 4, seed) },
			shape: []int{8},
		},
		{
			name:  "resnet",
			build: func(seed int64) *nn.Network { return models.ResNet(models.MiniResNet(8, 2, 8, 4, seed)) },
			shape: []int{3, 8, 8},
		},
	}
}

// randBatch builds a [batch, shape...] input from a fixed seed.
func randBatch(batch int, shape []int, seed int64) *tensor.Tensor {
	full := append([]int{batch}, shape...)
	x := tensor.New(full...)
	rng := rand.New(rand.NewSource(seed))
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return x
}

// mustInfer runs one request and fails the test on error.
func mustInfer(t *testing.T, e *Infer, x *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	y, err := e.Infer(context.Background(), x)
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	return y
}

// sameBits requires exact float equality — the forward split must be
// bit-identical to the training forward, not merely close.
func sameBits(t *testing.T, got, want *tensor.Tensor, label string) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", label, got.Shape, want.Shape)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: logits[%d] = %v, want %v (bit-exactness violated)", label, i, got.Data[i], want.Data[i])
		}
	}
}

// TestInferMatchesTrainingForward is the bit-exactness matrix: pooled and
// unpooled, several kernel-worker budgets, both model families — every
// combination must reproduce nn.Network.Forward (the training forward)
// exactly.
func TestInferMatchesTrainingForward(t *testing.T) {
	const seed = 41
	for _, m := range inferModels() {
		oracle := m.build(seed)
		x := randBatch(3, m.shape, seed+1)
		want, ctxs := oracle.Forward(x.Clone())
		for i, s := range oracle.Stages {
			s.ReleaseCtx(ctxs[i], nil)
		}
		for _, unpooled := range []bool{false, true} {
			for _, workers := range []int{0, 2, 4} {
				eng, err := NewInfer([]*nn.Network{m.build(seed)}, InferConfig{
					Workers:  workers,
					Unpooled: unpooled,
				})
				if err != nil {
					t.Fatalf("%s: %v", m.name, err)
				}
				// Two passes so the pooled path also covers warmed arenas.
				sameBits(t, mustInfer(t, eng, x.Clone()), want, m.name)
				sameBits(t, mustInfer(t, eng, x.Clone()), want, m.name)
				st := eng.Stats()
				if st.Submitted != 2 || st.Completed != 2 {
					t.Fatalf("%s: stats %+v, want 2 submitted/completed", m.name, st)
				}
				eng.Close()
			}
		}
	}
}

// TestInferReplicasShareWeights runs a multi-replica engine and checks every replica (round-robin) computes identical logits from the one
// shared weight set.
func TestInferReplicasShareWeights(t *testing.T) {
	m := inferModels()[0]
	const seed = 43
	nets := []*nn.Network{m.build(seed), m.build(seed), m.build(seed)}
	eng, err := NewInfer(nets, InferConfig{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	oracle := m.build(seed)
	x := randBatch(2, m.shape, seed+1)
	want, _ := oracle.Forward(x.Clone())
	for i := 0; i < 6; i++ { // two full round-robin laps
		sameBits(t, mustInfer(t, eng, x.Clone()), want, "replica lap")
	}
	if st := eng.Stats(); st.Replicas != 3 {
		t.Fatalf("Stats().Replicas = %d, want 3", st.Replicas)
	}
}

// checkpointState captures a snapshot whose replica 0 holds src's weights,
// in one of the three shapes the one layout covers: the SGDM view, a bare
// pipeline engine, or an R=2 cluster whose replica 1 is another network.
func checkpointState(t *testing.T, src, other *nn.Network, kind string) *checkpoint.State {
	t.Helper()
	cfg := ScaledConfig(0.1, 0.9, 16, 1)
	var ct checkpoint.ClusterTrainer
	switch kind {
	case "sgdm":
		step := 7
		ct = checkpoint.SGDM(src, nil, &step)
	case "pipeline":
		ct = checkpoint.Pipeline{Net: src, Engine: NewPBTrainer(src, cfg)}
	case "cluster":
		cl, err := NewCluster([]*nn.Network{src, other}, cfg, ClusterConfig{Engine: "seq"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cl.Close)
		ct = cl
	default:
		t.Fatalf("unknown snapshot kind %q", kind)
	}
	st, err := checkpoint.Capture(ct, map[string]string{"origin": "infer_test"})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestInferCheckpointVersions hot-loads SGDM, pipeline and cluster snapshots
// through the forward-only restore path and checks the served logits are
// bit-identical to src, the network whose weights replica 0 holds.
func TestInferCheckpointVersions(t *testing.T) {
	const seed = 47
	for _, m := range inferModels() {
		for i, kind := range []string{"sgdm", "pipeline", "cluster"} {
			// The snapshot carries weights from a different seed than the
			// engine's nets, so a failed restore cannot pass by accident.
			src := m.build(seed + int64(i+1)*100)
			x := randBatch(2, m.shape, seed+2)
			want, _ := src.Forward(x.Clone())
			st := checkpointState(t, src, m.build(seed+int64(i+1)*100+1), kind)
			path := filepath.Join(t.TempDir(), "ckpt.gob")
			if err := checkpoint.Write(path, st); err != nil {
				t.Fatal(err)
			}

			eng, err := NewInfer([]*nn.Network{m.build(seed)}, InferConfig{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			loader := m.build(seed)
			if _, err := checkpoint.LoadForward(path, loader); err != nil {
				t.Fatalf("%s %s: LoadForward: %v", m.name, kind, err)
			}
			old, err := eng.Swap(CaptureWeights(loader))
			if err != nil {
				t.Fatalf("%s %s: Swap: %v", m.name, kind, err)
			}
			if n := old.InUse(); n != 0 {
				t.Fatalf("%s %s: displaced set has %d references with nothing in flight", m.name, kind, n)
			}
			sameBits(t, mustInfer(t, eng, x.Clone()), want, m.name+" "+kind+" ckpt")
			eng.Close()
		}
	}
}

// TestInferSwapRejectsMismatch checks the layout validation: a weight set
// captured from a different architecture must be refused without disturbing
// the published set.
func TestInferSwapRejectsMismatch(t *testing.T) {
	m := inferModels()[0]
	eng, err := NewInfer([]*nn.Network{m.build(1)}, InferConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	before := eng.Weights()
	other := models.DeepMLP(8, 16, 2, 4, 1) // different width/depth
	if _, err := eng.Swap(CaptureWeights(other)); err == nil {
		t.Fatal("Swap accepted a weight set from a different architecture")
	}
	if eng.Weights() != before {
		t.Fatal("rejected Swap disturbed the published weight set")
	}
}

// TestInferHotSwapUnderLoad swaps weights while concurrent clients stream
// requests: no request may fail, every response must be bit-identical to one
// of the two published versions (a flight never observes a torn mix), and
// every displaced weight set must drain its references to zero.
func TestInferHotSwapUnderLoad(t *testing.T) {
	m := inferModels()[0]
	const (
		seedA   = 53
		seedB   = 59
		clients = 4
		perC    = 40
		swaps   = 12
	)
	nets := []*nn.Network{m.build(seedA), m.build(seedA)}
	eng, err := NewInfer(nets, InferConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	x := randBatch(2, m.shape, 61)
	oracleA, oracleB := m.build(seedA), m.build(seedB)
	wantA, _ := oracleA.Forward(x.Clone())
	wantB, _ := oracleB.Forward(x.Clone())
	setB := CaptureWeights(oracleB)
	setA := CaptureWeights(oracleA)

	matches := func(y, want *tensor.Tensor) bool {
		for i := range want.Data {
			if y.Data[i] != want.Data[i] {
				return false
			}
		}
		return true
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	torn := make(chan string, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perC; i++ {
				y, err := eng.Infer(context.Background(), x.Clone())
				if err != nil {
					errs <- err
					return
				}
				if !matches(y, wantA) && !matches(y, wantB) {
					torn <- "logits match neither weight version"
					return
				}
			}
		}()
	}

	displaced := make([]*WeightSet, 0, swaps)
	for i := 0; i < swaps; i++ {
		next := setB
		if i%2 == 1 {
			next = setA
		}
		old, err := eng.Swap(next)
		if err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
		displaced = append(displaced, old)
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	close(errs)
	close(torn)
	for err := range errs {
		t.Fatalf("request failed during hot swap: %v", err)
	}
	for msg := range torn {
		t.Fatal(msg)
	}

	// With all clients done, every displaced set's in-flight pins must have
	// drained; only the currently published set keeps its publication
	// reference.
	current := eng.Weights()
	deadline := time.Now().Add(2 * time.Second)
	for _, ws := range displaced {
		if ws == current {
			continue
		}
		for ws.InUse() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("displaced weight set still has %d references after drain", ws.InUse())
			}
			time.Sleep(time.Millisecond)
		}
	}
	if got := current.InUse(); got != 1 {
		t.Fatalf("published set has %d references, want exactly the publication slot", got)
	}
	if st := eng.Stats(); st.Swaps != swaps || st.Completed != clients*perC {
		t.Fatalf("stats %+v, want %d swaps and %d completed", st, swaps, clients*perC)
	}
	eng.Close()
	if got := current.InUse(); got != 0 {
		t.Fatalf("Close left %d references on the published set", got)
	}
}

// TestInferClose checks the lifecycle edges: Close is idempotent, and Infer
// after Close fails with ErrInferClosed.
func TestInferClose(t *testing.T) {
	m := inferModels()[0]
	eng, err := NewInfer([]*nn.Network{m.build(1)}, InferConfig{})
	if err != nil {
		t.Fatal(err)
	}
	mustInfer(t, eng, randBatch(1, m.shape, 2))
	eng.Close()
	eng.Close()
	if _, err := eng.Infer(context.Background(), randBatch(1, m.shape, 2)); err != ErrInferClosed {
		t.Fatalf("Infer after Close = %v, want ErrInferClosed", err)
	}
}

// TestInferCloseDuringInfer closes the engine while callers are mid-request
// on replicas with live kernel-worker groups. Close must wait for a running
// forward before closing its group (the race detector flags it otherwise),
// every call must end in logits or ErrInferClosed, and nothing may hang.
func TestInferCloseDuringInfer(t *testing.T) {
	m := inferModels()[1]
	const callers = 4
	for round := 0; round < 5; round++ {
		// One replica, so the whole budget forms one live kernel group.
		eng, err := NewInfer([]*nn.Network{m.build(7)}, InferConfig{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		x := randBatch(4, m.shape, 8)
		var wg sync.WaitGroup
		errs := make(chan error, callers)
		started := make(chan struct{}, callers)
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				started <- struct{}{}
				for {
					y, err := eng.Infer(context.Background(), x.Clone())
					if err == ErrInferClosed {
						return
					}
					if err != nil || y == nil {
						errs <- fmt.Errorf("Infer during Close: logits %v, err %v", y, err)
						return
					}
				}
			}()
		}
		for c := 0; c < callers; c++ {
			<-started
		}
		eng.Close()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("callers still blocked 10 s after Close")
		}
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}

// TestInferArenaBounded pins the serving heap: once every batch size the
// batcher can form has run once, further mixed-size requests reuse pooled
// buffers and allocate no new arena tensors.
func TestInferArenaBounded(t *testing.T) {
	const maxBatch = 8
	for _, m := range inferModels() {
		eng, err := NewInfer([]*nn.Network{m.build(3)}, InferConfig{})
		if err != nil {
			t.Fatal(err)
		}
		news := func() int {
			total := 0
			for _, rep := range eng.reps {
				n, _ := rep.arena.Allocs()
				total += n
			}
			return total
		}
		for b := 1; b <= maxBatch; b++ {
			mustInfer(t, eng, randBatch(b, m.shape, int64(b)))
		}
		warm := news()
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 200; i++ {
			mustInfer(t, eng, randBatch(1+rng.Intn(maxBatch), m.shape, int64(i)))
		}
		if grew := news() - warm; grew != 0 {
			t.Fatalf("%s: arena allocated %d new buffers over 200 warmed requests, want 0", m.name, grew)
		}
		eng.Close()
	}
}
