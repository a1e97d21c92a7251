// Command serve runs the inference tier: the forward-only in-caller engine
// (core.Infer via the train.Server facade) behind the HTTP API in
// internal/serve — bounded admission, deadline-aware dynamic micro-batching,
// hot checkpoint swap, graceful drain on SIGINT/SIGTERM.
//
// Usage:
//
//	go run ./cmd/serve [flags]
//
//	-addr :8097         listen address
//	-model resnet       model family: resnet (mini ResNet-20, [3,8,8] inputs)
//	                    or mlp (deep MLP, [48] inputs)
//	-ckpt path          checkpoint to load at startup (SGDM, pipeline or cluster)
//	-replicas 1         forward replicas sharing the weight set
//	-kernel-workers 0   total kernel-worker budget
//	-batch 8            max coalesced micro-batch size
//	-window 2ms         per-request batching deadline budget
//	-queue 64           admission queue capacity
//	-seed 1             builder seed (initial weights until a swap)
//	-dtype f64          serving dtype: f64 (bit-exact oracle) or f32 (SIMD
//	                    kernels; checkpoints narrow once at load)
//
// The handler also exposes GET /metrics (bus aggregator snapshot) and GET
// /events (live SSE stream): engine and admission events share one bus.
// A connection that has not sent its full request headers within 10 s is
// closed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/train"
)

// readHeaderTimeout bounds how long a client may take to send its request
// headers, so a connection that trickles a partial header is closed instead
// of holding a goroutine and a socket forever.
const readHeaderTimeout = 10 * time.Second

// modelSpec couples a Builder with its per-sample input shape.
type modelSpec struct {
	build train.Builder
	shape []int
}

// modelFor resolves the -model flag. The resnet spec is the benchmark's
// RN20-mini, so its checkpoints are directly servable.
func modelFor(name string) (modelSpec, error) {
	switch name {
	case "resnet":
		return modelSpec{
			build: func(seed int64) *nn.Network {
				return models.ResNet(models.MiniResNet(20, 4, 8, 10, seed))
			},
			shape: []int{3, 8, 8},
		}, nil
	case "mlp":
		return modelSpec{
			build: func(seed int64) *nn.Network {
				return models.DeepMLP(48, 32, 4, 10, seed)
			},
			shape: []int{48},
		}, nil
	default:
		return modelSpec{}, fmt.Errorf("unknown -model %q (want resnet or mlp)", name)
	}
}

func main() {
	addr := flag.String("addr", ":8097", "listen address")
	model := flag.String("model", "resnet", "model family: resnet or mlp")
	ckpt := flag.String("ckpt", "", "checkpoint to load at startup")
	replicas := flag.Int("replicas", 1, "forward replicas")
	kernelWorkers := flag.Int("kernel-workers", 0, "total kernel-worker budget")
	batch := flag.Int("batch", 8, "max coalesced micro-batch size")
	window := flag.Duration("window", 2*time.Millisecond, "batching deadline budget")
	queue := flag.Int("queue", 64, "admission queue capacity")
	seed := flag.Int64("seed", 1, "builder seed")
	dtype := flag.String("dtype", "f64", "serving dtype: f64 (bit-exact oracle) or f32 (SIMD kernels)")
	flag.Parse()

	if err := run(*addr, *model, *ckpt, *dtype, *replicas, *kernelWorkers, *batch, *window, *queue, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

func run(addr, model, ckpt, dtype string, replicas, kernelWorkers, batch int, window time.Duration, queue int, seed int64) error {
	spec, err := modelFor(model)
	if err != nil {
		return err
	}
	dt, err := tensor.ParseDType(dtype)
	if err != nil {
		return err
	}
	// One bus for the whole process: the inference engine's completion
	// events and the admission tier's batching/latency events interleave on the
	// stream /metrics and /events serve.
	bus := obs.NewBus()
	defer bus.Close()
	backend, err := train.NewServer(spec.build, train.ServerConfig{
		Replicas:      replicas,
		KernelWorkers: kernelWorkers,
		Seed:          seed,
		Checkpoint:    ckpt,
		Obs:           bus,
		DType:         dt,
	})
	if err != nil {
		return err
	}
	defer backend.Close()

	srv, err := serve.New(serve.Config{
		Backend:     backend,
		InputShape:  spec.shape,
		MaxBatch:    batch,
		BatchWindow: window,
		QueueCap:    queue,
		Bus:         bus,
	})
	if err != nil {
		return err
	}

	httpSrv := &http.Server{Addr: addr, Handler: srv.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Printf("serve: listening on %s (model=%s replicas=%d batch=%d window=%s)\n",
		addr, model, replicas, batch, window)

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop the listener (no new connections), drain the
	// admission queue (every in-flight request is answered), then close the
	// backend engine.
	fmt.Println("serve: draining...")
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := srv.Shutdown(shutCtx); err != nil {
		return err
	}
	st := srv.Stats()
	fmt.Printf("serve: drained clean (completed=%d failed=%d rejected=%d batches=%d mean_batch=%.2f p50=%.3fms p99=%.3fms)\n",
		st.Completed, st.Failed, st.Rejected, st.Batches, st.MeanBatch, st.P50Ms, st.P99Ms)
	if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
