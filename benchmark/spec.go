package main

import (
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// modelSeed is the builder seed of every workload: -seed varies the
// generated inputs only, never the model.
const modelSeed = 1

// model couples a network builder with the dataset it trains on.
type model struct {
	name  string
	build func(seed int64) *nn.Network
	data  func(seed int64) *data.Dataset
	shape []int // per-sample input shape
}

var (
	rn20mini = model{
		name:  "RN20-mini",
		build: func(seed int64) *nn.Network { return models.ResNet(models.MiniResNet(20, 4, 8, 10, seed)) },
		data: func(seed int64) *data.Dataset {
			ds, _ := data.GenerateImages(data.CIFAR10Like(8, 2048, 0, seed))
			return ds
		},
		shape: []int{3, 8, 8},
	}
	mlp12 = model{
		name:  "MLP12",
		build: func(seed int64) *nn.Network { return models.DeepMLP(64, 128, 12, 10, seed) },
		data: func(seed int64) *data.Dataset {
			ds, _ := data.GaussianBlobs(64, 10, 2048, 0, 3, 1, seed)
			return ds
		},
		shape: []int{64},
	}
)

// mitigation is the paper's best method; every train-* workload uses it.
var mitigation = core.LWPvDSCD

// Serving constants, frozen here and quoted in BENCHMARK.json: the open-loop
// rate is never derived at run time, so both sides of a comparison are
// offered identical load.
const (
	openRate   = 800.0 // req/s, ≈30 % of saturation on the reference box
	satClients = 32    // closed-loop clients, one request outstanding each; see README on why not 16
	bodyPool   = 256   // seeded request bodies per run
	serveBatch = 8     // cmd/serve defaults
	serveQueue = 64
)

// workload is one named benchmark input. Exactly one of train/serve fields
// applies, selected by serve.
type workload struct {
	name, why string
	model     model
	sloMs     float64 // latency limit behind slo_ok_share

	// train-*: one segment is Fit over segEpochs epochs of the dataset.
	engine        string
	kernelWorkers bool // give the engine the GOMAXPROCS kernel-worker budget
	replicas      int
	policy        string
	segEpochs     int

	// serve-*: one segment is segRequests requests, open loop at openRate or
	// closed loop with satClients.
	serve       bool
	open        bool
	dtype       tensor.DType
	segRequests int
}

// workloads is the suite, in run order. A segment is about one second of work
// on the 2-core reference box: short enough that a dozen fit one run, so the
// median over segments rides out the box's noisy seconds, long enough that a
// segment's p95 still has 40 samples beyond it.
var workloads = []workload{
	{
		name: "train-resnet-async", model: rn20mini, engine: "async", kernelWorkers: true, segEpochs: 1, sloMs: 40,
		why: "paper's headline setting: RN20-mini, batch 1, one stage per layer (S=31), free-running async engine; conv kernels and stage scheduling both on the path",
	},
	{
		name: "train-resnet-seq", model: rn20mini, engine: "seq", segEpochs: 1, sloMs: 60,
		why: "same task on the single-thread seq engine: no goroutines or channels, so kernel/nn/optim wins show and async-runtime changes must not; deterministic, carries the loss checksum",
	},
	{
		name: "train-mlp-async", model: mlp12, engine: "async", kernelWorkers: true, segEpochs: 1, sloMs: 40,
		why: "MLP12 (S=13) on the async engine: 1 MAC per weight at batch 1, so optimizer step, LWP predict, M=1 GEMV, nn glue and channel hops dominate and conv does nothing",
	},
	{
		name: "train-resnet-replicas", model: rn20mini, engine: "async", kernelWorkers: true, replicas: 2, policy: "avg-every-64", segEpochs: 2, sloMs: 100,
		why: "RN20-mini as 2 async replicas averaging weights every 64 samples: puts core/cluster.go and internal/sync on the blocking path",
	},
	{
		name: "serve-open", model: rn20mini, serve: true, open: true, segRequests: 800, sloMs: 10,
		why: "open loop, seeded Poisson arrivals at a fixed 800 req/s (light load), f64, latency from due time: window wait plus one pipeline pass, batches rarely fill",
	},
	{
		name: "serve-sat", model: rn20mini, serve: true, segRequests: 3000, sloMs: 25,
		why: "closed loop, 32 clients with one request outstanding each, f64: saturation, where the window no longer sets latency and kernels + JSON + batching set the rate",
	},
	{
		name: "serve-sat-f32", model: rn20mini, serve: true, dtype: tensor.F32, segRequests: 3000, sloMs: 25,
		why: "serve-sat at float32: guards the f32 kernel twins and is where f32 serving beating f64 will be claimed",
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricSpec names one reported metric. moves says which end-to-end metric a
// per-layer metric is expected to move, and on which workload.
type metricSpec struct {
	name, unit, better string
	bound              float64 // end-to-end only: share of the parent's median
	moves              string
}

// endToEnd is what a user of the system sees. Every workload reports every
// one; on train-* the operation is one training sample and its latency the
// pipeline turnaround (submission to its last weight update, as the façade's
// hooks see them), on serve-* it is one request timed from its due time.
var endToEnd = []metricSpec{
	{name: "throughput_per_s", unit: "1/s", better: "higher", bound: 0.15},
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "latency_p95_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "slo_ok_share", unit: "share", better: "higher", bound: 0.02},
	{name: "cpu_ms_per_op", unit: "ms", better: "lower", bound: 0.15},
	{name: "live_heap_mb", unit: "MB", better: "lower", bound: 0.10},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// perLayer is the traced pass's ledger, one row per layer metric.
var perLayer = []metricSpec{
	{name: "data.prepare_ns_per_sample", unit: "ns", better: "lower", moves: "throughput_per_s on train-*"},

	{name: "tensor.kernel_ns_per_sample", unit: "ns", better: "lower", moves: "throughput_per_s on train-resnet-* (conv) and train-mlp-async (gemv)"},
	{name: "tensor.kernel_gflops", unit: "GFLOP/s", better: "higher", moves: "throughput_per_s on train-*, serve-sat*"},
	{name: "tensor.conv_fwd_ns", unit: "ns", better: "lower", moves: "throughput_per_s on train-resnet-*, serve-sat; flat on train-mlp-async"},
	{name: "tensor.conv_bwd_ns", unit: "ns", better: "lower", moves: "throughput_per_s on train-resnet-*; flat on serve-* and train-mlp-async"},
	{name: "tensor.gemv_fwd_ns", unit: "ns", better: "lower", moves: "throughput_per_s on train-mlp-async only"},
	{name: "tensor.gemv_bwd_ns", unit: "ns", better: "lower", moves: "throughput_per_s on train-mlp-async only"},
	{name: "tensor.conv_fwd_ns_f32", unit: "ns", better: "lower", moves: "throughput_per_s on serve-sat-f32 only"},
	{name: "tensor.conv_bwd_ns_f32", unit: "ns", better: "lower", moves: "none today (no f32 train workload); guard"},
	{name: "tensor.gemv_fwd_ns_f32", unit: "ns", better: "lower", moves: "throughput_per_s on serve-sat-f32 (fc head only)"},
	{name: "tensor.gemv_bwd_ns_f32", unit: "ns", better: "lower", moves: "none today; guard"},
	{name: "tensor.par_conv_fwd_ns", unit: "ns", better: "lower", moves: "none on a 2-core box: S >= budget leaves no kernel-worker surplus"},

	{name: "nn.forward_ns_per_sample", unit: "ns", better: "lower", moves: "throughput_per_s on train-*, serve-sat*"},
	{name: "nn.backward_ns_per_sample", unit: "ns", better: "lower", moves: "throughput_per_s on train-*"},
	{name: "nn.loss_ns_per_sample", unit: "ns", better: "lower", moves: "throughput_per_s on train-*"},
	{name: "nn.glue_ns_per_sample", unit: "ns", better: "lower", moves: "throughput_per_s on train-mlp-async first"},
	{name: "nn.stage_max_ns", unit: "ns", better: "lower", moves: "bounds throughput_per_s on train-resnet-async"},
	{name: "nn.stage_imbalance", unit: "ratio", better: "lower", moves: "throughput_per_s on train-*-async"},

	{name: "optim.step_ns_per_sample", unit: "ns", better: "lower", moves: "throughput_per_s on train-mlp-async first"},
	{name: "optim.predict_ns_per_sample", unit: "ns", better: "lower", moves: "throughput_per_s on train-mlp-async first"},
	{name: "optim.share", unit: "share", better: "lower", moves: "throughput_per_s on train-mlp-async; 0 on serve-*"},

	{name: "core.busy_ns_per_sample", unit: "ns", better: "lower", moves: "throughput_per_s on train-*-async"},
	{name: "core.utilization", unit: "share", better: "higher", moves: "throughput_per_s on train-*-async"},
	{name: "core.stage_busy_share_max", unit: "share", better: "lower", moves: "throughput_per_s on train-resnet-async"},
	{name: "core.idle_share", unit: "share", better: "lower", moves: "throughput_per_s on train-*-async"},
	{name: "core.overhead_ns_per_sample", unit: "ns", better: "lower", moves: "throughput_per_s on train-*; the only core metric that moves on train-resnet-seq"},
	{name: "core.submit_block_ns_per_sample", unit: "ns", better: "lower", moves: "throughput_per_s on train-*-async"},
	{name: "core.drain_ms_per_epoch", unit: "ms", better: "lower", moves: "throughput_per_s on train-*-async"},
	{name: "core.staleness_max", unit: "count", better: "lower", moves: "none; must stay <= 2(S-1)"},
	{name: "core.staleness_mean", unit: "count", better: "lower", moves: "none; health signal"},
	{name: "core.queue_depth_max", unit: "count", better: "lower", moves: "latency_p95_ms on train-*-async"},
	{name: "core.admit_deferred", unit: "count", better: "lower", moves: "none; 0 without an admit bound"},
	{name: "core.loss_checksum", unit: "hash", better: "higher", moves: "none; low 32 bits of the FNV-64 of per-epoch loss bits, must repeat on train-resnet-seq"},
	{name: "core.infer_b1_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on serve-open"},
	{name: "core.infer_b8_ms", unit: "ms", better: "lower", moves: "throughput_per_s on serve-sat*"},
	{name: "core.infer_batch8_speedup", unit: "ratio", better: "higher", moves: "throughput_per_s on serve-sat*"},
	{name: "core.swap_ms", unit: "ms", better: "lower", moves: "none; guard"},

	{name: "sync.syncs", unit: "count", better: "lower", moves: "throughput_per_s on train-resnet-replicas only"},
	{name: "sync.cost_share", unit: "share", better: "lower", moves: "throughput_per_s on train-resnet-replicas only"},

	{name: "checkpoint.save_ms", unit: "ms", better: "lower", moves: "none; stall guard"},
	{name: "checkpoint.load_ms", unit: "ms", better: "lower", moves: "setup_s when a server starts from a checkpoint; guard"},
	{name: "checkpoint.bytes", unit: "B", better: "lower", moves: "none; guard"},

	{name: "train.facade_overhead_share", unit: "share", better: "lower", moves: "throughput_per_s on train-*"},

	{name: "serve.handler_p50_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on serve-*"},
	{name: "serve.admit_to_resp_p50_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on serve-*"},
	{name: "serve.codec_ms", unit: "ms", better: "lower", moves: "throughput_per_s on serve-sat*"},
	{name: "serve.wait_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on serve-open; flat on serve-sat*"},
	{name: "serve.window_share", unit: "share", better: "lower", moves: "latency_p50_ms on serve-open; flat on serve-sat*"},
	{name: "serve.mean_batch", unit: "count", better: "higher", moves: "throughput_per_s on serve-sat*"},
	{name: "serve.batches", unit: "count", better: "lower", moves: "throughput_per_s on serve-sat*"},
	{name: "serve.queue_max", unit: "count", better: "lower", moves: "latency_p95_ms on serve-*"},
	{name: "serve.rejected", unit: "count", better: "lower", moves: "slo_ok_share on serve-*"},
	{name: "serve.latency_p99_ms", unit: "ms", better: "lower", moves: "latency_p95_ms on serve-*"},
	{name: "serve.latency_max_ms", unit: "ms", better: "lower", moves: "latency_p95_ms on serve-*"},
	{name: "serve.gen_late_p95_ms", unit: "ms", better: "lower", moves: "none; how late the open-loop generator ran"},
	{name: "serve.rate_within_slo", unit: "1/s", better: "higher", moves: "slo_ok_share on serve-open (traced pass of serve-open only)"},

	{name: "obs.tracing_overhead_share", unit: "share", better: "lower", moves: "none; keeps the traced pass honest"},
	{name: "obs.events", unit: "count", better: "lower", moves: "none"},
	{name: "obs.dropped", unit: "count", better: "lower", moves: "none"},

	{name: "runtime.allocs_per_op", unit: "count", better: "lower", moves: "latency_p95_ms on serve-*, live_heap_mb"},
	{name: "runtime.alloc_bytes_per_op", unit: "B", better: "lower", moves: "latency_p95_ms on serve-*, live_heap_mb"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower", moves: "latency_p95_ms on serve-*"},
	{name: "runtime.gc_pause_total_ms", unit: "ms", better: "lower", moves: "latency_p95_ms on serve-*"},
	{name: "runtime.goroutines", unit: "count", better: "lower", moves: "live_heap_mb"},
}
