package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/sched"
	syncpol "repro/internal/sync"
	"repro/train"
)

// refConfig is the hyperparameter part of the core.Config the train façade
// derives for a pipelined engine (train.ensureBuilt): DefaultRef scaled to
// update size one, with the suite's mitigation.
func refConfig() core.Config {
	ref := train.DefaultRef
	cfg := core.ScaledConfig(ref.Eta, ref.Momentum, ref.RefBatch, 1)
	cfg.WeightDecay = ref.WeightDecay
	cfg.Mitigation = mitigation
	return cfg
}

// constantLR pins the learning rate: the façade's default MultiStep decay is
// sized from the first Fit call, which here is the short warm-up.
func constantLR() sched.Schedule { return sched.Constant{Base: refConfig().LR} }

// engineConfig is the whole config the façade would build for w, for the
// harness-driven engine.
func engineConfig(w *workload) core.Config {
	cfg := refConfig()
	cfg.Workers = w.kernelBudget()
	cfg.Schedule = constantLR()
	return cfg
}

func (w *workload) kernelBudget() int {
	if w.kernelWorkers {
		return runtime.GOMAXPROCS(0)
	}
	return 0
}

// trainRig is one built Trainer with the hooks the harness measures through.
type trainRig struct {
	w   *workload
	ds  *data.Dataset
	tr  *train.Trainer
	trc *tracer

	// Per-sample turnaround: submitAt[id-baseID] is when sample id passed
	// the augmentation hook on its way into Engine.Submit, lat collects
	// completion minus submission for the samples of the current Fit.
	submitAt  []time.Time
	baseID    int
	lat       []float64
	completed int
	epochLoss []float64
	stats     core.Stats   // engine snapshot after the latest epoch's drain
	report    train.Report // of the latest segment
	fitWall   time.Duration
	fitSpan   int // open train.fit span, parent of the epoch spans
	epochSpan int
}

// newTrainRig generates the dataset, builds the Trainer and runs the
// discarded warm-up Fit. bus is nil on every end-to-end pass.
func newTrainRig(ctx context.Context, w *workload, o runOpts, bus *obs.Bus, trc *tracer) (*trainRig, error) {
	full := w.model.data(o.seed)
	r := &trainRig{w: w, ds: head(full, o.scaled(full.Len(), 64)), trc: trc}
	opts := []train.Option{
		train.WithEngine(w.engine),
		train.WithMitigations(mitigation),
		train.WithWorkers(0),
		train.WithKernelWorkers(w.kernelBudget()),
		train.WithSeed(modelSeed),
		train.WithSchedule(constantLR()),
		train.WithAugment(submitClock{r}),
		train.OnSampleDone(r.onSample),
		train.OnEpochEnd(r.onEpoch),
	}
	if w.replicas > 0 {
		opts = append(opts, train.WithReplicas(w.replicas, w.policy))
	}
	if bus != nil {
		opts = append(opts, train.WithObserver(bus))
	}
	r.tr = train.New(train.Builder(w.model.build), opts...)
	if _, _, err := r.fit(ctx, head(full, o.scaled(warmSamples, 32)), 1); err != nil {
		r.tr.Close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return r, nil
}

// warmSamples is the size of the discarded warm-up epoch at scale 1.
const warmSamples = 512

// head is the dataset's first n samples as a dataset of its own.
func head(ds *data.Dataset, n int) *data.Dataset {
	n = min(n, ds.Len())
	return &data.Dataset{Samples: ds.Samples[:n], Labels: ds.Labels[:n], Shape: ds.Shape, Classes: ds.Classes}
}

// submitClock is a pass-through augmenter: RunEpoch applies it to every
// sample just before Engine.Submit, in ID order, which makes it the one
// façade hook that sees a sample enter the pipeline.
type submitClock struct{ r *trainRig }

func (c submitClock) Apply(sample []float64, _ *rand.Rand) []float64 {
	c.r.submitAt = append(c.r.submitAt, time.Now())
	return sample
}

func (r *trainRig) onSample(ev train.SampleEvent) {
	r.completed++
	if i := ev.ID - r.baseID; i >= 0 && i < len(r.submitAt) {
		r.lat = append(r.lat, float64(time.Since(r.submitAt[i]))/float64(time.Millisecond))
	}
}

func (r *trainRig) onEpoch(ev train.EpochEvent) {
	r.epochLoss = append(r.epochLoss, ev.TrainLoss)
	r.stats = ev.Stats
	if r.trc != nil {
		r.trc.end(r.epochSpan)
		r.epochSpan = r.trc.begin("train.epoch", r.fitSpan, ev.Epoch+1)
	}
}

// fit runs one Fit call and returns what it did as a timed segment.
func (r *trainRig) fit(ctx context.Context, ds *data.Dataset, epochs int) (segment, train.Report, error) {
	e0 := len(r.epochLoss)
	r.baseID, r.submitAt, r.lat = r.completed, r.submitAt[:0], nil
	if r.trc != nil {
		r.fitSpan = r.trc.begin("train.fit", 0, 0)
		r.epochSpan = r.trc.begin("train.epoch", r.fitSpan, len(r.epochLoss)+1)
	}
	cpu0, t0 := cpuTime(), time.Now()
	rep, err := r.tr.Fit(ctx, ds, nil, epochs)
	seg := segment{attempted: epochs * ds.Len(), ok: rep.Samples, wall: time.Since(t0), cpu: cpuTime() - cpu0}
	if r.trc != nil {
		// The span opened after the last epoch covers only Fit's epilogue.
		r.trc.end(r.epochSpan)
		r.trc.end(r.fitSpan)
	}
	r.fitWall += seg.wall
	seg.lat, seg.latTotal = r.lat, seg.attempted
	seg.loss = mean(r.epochLoss[e0:])
	return seg, rep, err
}

// segment implements rig: one Fit over the segment's epochs, checked.
func (r *trainRig) segment(ctx context.Context, p *passResult, _ int) (segment, error) {
	seg, rep, err := r.fit(ctx, r.ds, r.w.segEpochs)
	if err != nil {
		return seg, err
	}
	checkReport(p, seg, rep)
	r.report = rep
	return seg, nil
}

func (r *trainRig) close() { r.tr.Close() }

// fitSegments runs n checked segments and returns each one's samples/s.
func (r *trainRig) fitSegments(ctx context.Context, p *passResult, n int) ([]float64, error) {
	var rates []float64
	for i := 0; i < n; i++ {
		seg, err := r.segment(ctx, p, i)
		if err != nil {
			return nil, fmt.Errorf("segment %d: %w", i, err)
		}
		p.account(seg)
		rates = append(rates, float64(seg.ok)/seg.wall.Seconds())
	}
	return rates, nil
}

// checkReport applies the per-Fit output checks: every sample accounted for
// and the measured staleness within the analytic bound D_s = 2(S−1−s).
func checkReport(p *passResult, seg segment, rep train.Report) {
	if seg.ok != seg.attempted {
		p.problemf("Fit completed %d of %d samples", seg.ok, seg.attempted)
	}
	s := rep.Stages
	if len(rep.ObservedDelays) != s {
		p.problemf("ObservedDelays has %d entries for %d stages", len(rep.ObservedDelays), s)
	}
	for i, d := range rep.ObservedDelays {
		if bound := 2 * (s - 1 - i); d > bound {
			p.problemf("stage %d observed delay %d exceeds 2(S-1-s) = %d", i, d, bound)
		}
	}
	if math.IsNaN(seg.loss) || math.IsInf(seg.loss, 0) {
		p.problemf("segment mean loss is %v", seg.loss)
	}
}

// lossChecksum is the FNV-64a of the bit patterns of the given epoch losses.
func lossChecksum(losses []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, l := range losses {
		bits := math.Float64bits(l)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// checksumEpochs is how many epochs (warm-up first) the loss checksum covers:
// the part of a run that does not depend on how many segments fit the budget.
func (w *workload) checksumEpochs() int { return 1 + 3*w.segEpochs }

// runTrain runs one pass of a train-* workload.
func runTrain(ctx context.Context, w *workload, o runOpts) (*passResult, error) {
	if o.traced {
		return tracedTrain(ctx, w, o)
	}
	p := &passResult{}
	rig, segs, err := endToEndPass(ctx, p, o, w.sloMs, func() (*trainRig, error) { return newTrainRig(ctx, w, o, nil, nil) })
	if err != nil {
		return nil, err
	}
	defer rig.close()
	// The kept rig's first epoch is its warm-up, from untrained weights.
	warmLoss := rig.epochLoss[0]
	if lastLoss := segs[len(segs)-1].loss; !(lastLoss < warmLoss) {
		p.problemf("last-segment mean loss %.4f is not below the first epoch's %.4f", lastLoss, warmLoss)
	}
	p.checksum = fmt.Sprintf("%016x", lossChecksum(rig.epochLoss[:w.checksumEpochs()]))
	return p, nil
}

// tracedTrain is the layer-by-layer pass: untraced reference segments, the
// same workload with a bus and spans attached, the engine driven directly,
// and single-goroutine replays of the layers below it.
func tracedTrain(ctx context.Context, w *workload, o runOpts) (*passResult, error) {
	p := &passResult{layer: map[string]float64{}}
	trc := newTracer()

	n := o.tracedSegments()

	ref, err := newTrainRig(ctx, w, o, nil, nil)
	if err != nil {
		return nil, err
	}
	refRates, err := ref.fitSegments(ctx, p, n)
	ref.close()
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	refRate := median(refRates)

	bus := obs.NewBus()
	defer bus.Close()
	agg := obs.NewAggregator(bus)
	defer agg.Close()
	rig, err := newTrainRig(ctx, w, o, bus, trc)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	mem0, done0 := memSnapshot(), rig.completed
	tracedRates, err := rig.fitSegments(ctx, p, n)
	if err != nil {
		return nil, fmt.Errorf("traced: %w", err)
	}
	rep := rig.report
	runtimeMetrics(p.layer, mem0, rig.completed-done0)
	p.layer["obs.tracing_overhead_share"] = 1 - median(tracedRates)/refRate
	sum := lossChecksum(rig.epochLoss)
	p.checksum = fmt.Sprintf("%016x", sum)
	p.layer["core.loss_checksum"] = float64(sum & 0xffffffff)

	dir, err := os.MkdirTemp("", "pbbench-ckpt-")
	if err != nil {
		return nil, fmt.Errorf("checkpoint dir: %w", err)
	}
	defer os.RemoveAll(dir)
	if _, err := checkpointMetrics(p.layer, trc, w, dir, rig.tr.Checkpoint); err != nil {
		return nil, err
	}

	// Bus-side accounting, read once the last Fit has drained.
	snap := agg.Snapshot()
	replicas := max(1, w.replicas)
	completed := float64(max(1, rig.completed))
	var busy, busyMax int64
	for _, st := range snap.Stages {
		busy += st.BusyNs
		busyMax = max(busyMax, st.BusyNs)
	}
	busyPerSample := float64(busy) / completed
	if busy == 0 {
		// No per-stage busy time on the bus (the stepped engines account
		// steps, a cluster's replicas emit nothing): derive it from the
		// engine's own utilization of its workers.
		workers := 1
		if w.engine != "seq" {
			workers = runtime.GOMAXPROCS(0) * replicas
		}
		busyPerSample = rig.stats.Utilization * float64(workers) * float64(rig.fitWall.Nanoseconds()) / completed
	}
	var stale, staleN int64
	for _, b := range snap.StalenessHist {
		stale += b.Delay * b.Count
		staleN += b.Count
	}
	p.layer["core.busy_ns_per_sample"] = busyPerSample
	p.layer["core.utilization"] = rig.stats.Utilization
	p.layer["core.stage_busy_share_max"] = float64(busyMax) / float64(rig.fitWall.Nanoseconds())
	p.layer["core.idle_share"] = math.Max(0, 1-rig.stats.Utilization)
	p.layer["core.staleness_max"] = float64(rep.MaxStaleness)
	p.layer["core.staleness_mean"] = float64(stale) / float64(max(1, staleN))
	p.layer["core.queue_depth_max"] = float64(snap.QueueMax)
	p.layer["core.admit_deferred"] = float64(rig.stats.AdmitDeferred)
	p.layer["sync.syncs"] = float64(rep.Syncs)
	p.layer["obs.events"] = float64(snap.Events)
	p.layer["obs.dropped"] = float64(snap.Dropped)

	// The engine without the façade, and without its sync policy.
	drive, err := driveEngine(ctx, w, o, rig.ds, w.policy, trc)
	if err != nil {
		return nil, err
	}
	p.account(drive.seg)
	p.layer["data.prepare_ns_per_sample"] = drive.prepareNs
	p.layer["core.submit_block_ns_per_sample"] = drive.submitNs
	p.layer["core.drain_ms_per_epoch"] = drive.drainMs
	p.layer["train.facade_overhead_share"] = 1 - refRate/drive.rate
	if w.replicas > 0 {
		free, err := driveEngine(ctx, w, o, rig.ds, "none", trc)
		if err != nil {
			return nil, err
		}
		p.account(free.seg)
		p.layer["sync.cost_share"] = 1 - drive.rate/free.rate
	}

	lay := replayLayers(trc, w.model, rig.ds, o.scaled(256, 8))
	kern := replayKernels(trc, w.model, o.scaled(200, 5))
	lay.into(p.layer)
	kern.into(p.layer)
	layersNs := drive.prepareNs + lay.total()
	p.layer["nn.glue_ns_per_sample"] = lay.forwardNs + lay.backwardNs - kern.perSampleNs
	p.layer["optim.share"] = (lay.stepNs + lay.predictNs) / layersNs
	p.layer["core.overhead_ns_per_sample"] = busyPerSample - layersNs

	if p.tracePath, p.traceSelf, err = trc.write(o.traceDir, w.name); err != nil {
		return nil, err
	}
	return p, nil
}

// checkpointMetrics times one save through the given function and one
// forward-only load into a fresh network; the file is left in dir.
func checkpointMetrics(layer map[string]float64, trc *tracer, w *workload, dir string, save func(path string) error) (string, error) {
	path := filepath.Join(dir, "state.ckpt")
	id := trc.begin("checkpoint.save", 0, 0)
	err := save(path)
	layer["checkpoint.save_ms"] = float64(trc.end(id)) / float64(time.Millisecond)
	if err != nil {
		return "", fmt.Errorf("checkpoint save: %w", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return "", fmt.Errorf("checkpoint stat: %w", err)
	}
	layer["checkpoint.bytes"] = float64(fi.Size())
	id = trc.begin("checkpoint.load", 0, 0)
	_, err = checkpoint.LoadForward(path, w.model.build(modelSeed))
	layer["checkpoint.load_ms"] = float64(trc.end(id)) / float64(time.Millisecond)
	if err != nil {
		return "", fmt.Errorf("checkpoint load: %w", err)
	}
	return path, nil
}

// driven is what one harness-driven engine segment measured.
type driven struct {
	seg                          segment
	rate                         float64 // samples/s, median over epochs
	prepareNs, submitNs, drainMs float64
}

// driveEngine feeds the traced pass's share of epochs through core.NewEngine
// (or core.NewCluster) the way core.RunEpoch does, with a span around every
// call it makes.
func driveEngine(ctx context.Context, w *workload, o runOpts, ds *data.Dataset, policy string, trc *tracer) (driven, error) {
	var d driven
	cfg := engineConfig(w)
	var eng core.Engine
	if w.replicas > 0 {
		pol, err := syncpol.Parse(policy)
		if err != nil {
			return d, fmt.Errorf("sync policy: %w", err)
		}
		nets := make([]*nn.Network, w.replicas)
		for i := range nets {
			nets[i] = w.model.build(modelSeed)
		}
		cl, err := core.NewCluster(nets, cfg, core.ClusterConfig{Replicas: w.replicas, Engine: w.engine, Policy: pol})
		if err != nil {
			return d, fmt.Errorf("cluster: %w", err)
		}
		eng = cl
	} else {
		e, err := core.NewEngine(w.engine, w.model.build(modelSeed), cfg)
		if err != nil {
			return d, fmt.Errorf("engine: %w", err)
		}
		eng = e
	}
	defer eng.Close()

	rng := rand.New(rand.NewSource(modelSeed * 7919))
	shape := append([]int{1}, ds.Shape...)
	var prepare, submit, drain time.Duration
	epoch := func(n int, timed bool) error {
		es := trc.begin("core.epoch", 0, 0)
		perm := ds.Perm(rng)[:n]
		for i, idx := range perm {
			ss := trc.begin("sample", es, i+1)
			ps := trc.begin("data.prepare", ss, i+1)
			x := eng.InputBuffer(shape...)
			x.SetFloat64s(0, ds.Samples[idx])
			prepared := trc.end(ps)
			cs := trc.begin("core.submit", ss, i+1)
			rs, err := eng.Submit(ctx, x, ds.Labels[idx])
			submitted := trc.end(cs)
			trc.end(ss)
			if err != nil {
				return fmt.Errorf("submit: %w", err)
			}
			if timed {
				prepare, submit = prepare+prepared, submit+submitted
				d.seg.ok += len(rs)
			}
		}
		dr := trc.begin("core.drain", es, 0)
		rs, err := eng.Drain(ctx)
		drained := trc.end(dr)
		trc.end(es)
		if timed {
			drain += drained
			d.seg.ok += len(rs)
		}
		if err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		return nil
	}
	if err := epoch(min(ds.Len(), o.scaled(warmSamples, 32)), false); err != nil {
		return d, err
	}
	var rates []float64
	epochs := o.tracedSegments() * w.segEpochs
	for e := 0; e < epochs; e++ {
		ok0, t0 := d.seg.ok, time.Now()
		if err := epoch(ds.Len(), true); err != nil {
			return d, err
		}
		wall := time.Since(t0)
		d.seg.wall += wall
		rates = append(rates, float64(d.seg.ok-ok0)/wall.Seconds())
	}
	d.seg.attempted = epochs * ds.Len()
	n := float64(d.seg.attempted)
	d.rate = median(rates)
	d.prepareNs = float64(prepare.Nanoseconds()) / n
	d.submitNs = float64(submit.Nanoseconds()) / n
	d.drainMs = float64(drain) / float64(time.Millisecond) / float64(epochs)
	return d, nil
}
