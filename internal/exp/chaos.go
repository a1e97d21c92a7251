package exp

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/chaos"
	"repro/internal/data"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/nn"
)

// chaosScenarios is the named scenario suite ChaosScenarios runs: one
// control, one straggler under bounded-staleness admission, and three
// fault/recovery scenarios on the deterministic engines (DESIGN.md §14).
// Sample counts scale with the -scale workload; everything else is part of
// the scenario's identity and fixed.
func chaosScenarios(samples int) []chaos.Spec {
	return []chaos.Spec{
		{
			// Control: two free-running replicas, no faults — the utilization
			// and throughput baseline the degraded scenarios read against.
			Name: "steady-async", Seed: 21, Replicas: 2, Engine: "async", Sync: "none",
			Samples: samples, Epochs: 2,
		},
		{
			// A straggling replica walks through steady → degraded →
			// recovered regimes while the admission bound keeps its pipeline
			// from hoarding stale in-flight samples.
			Name: "straggler-regimes", Seed: 22, Replicas: 2, Engine: "async", Sync: "none",
			Samples: samples, Epochs: 2, AdmitBound: 4,
			Models: []chaos.DelayModel{{
				Replica: 1, Stage: -1,
				Regimes: []chaos.Regime{
					{Name: "steady", FromUpdate: 0},
					{Name: "degraded", FromUpdate: samples / 4, Base: 200 * time.Microsecond, Jitter: 200 * time.Microsecond},
					{Name: "recovered", FromUpdate: samples, Base: 20 * time.Microsecond},
				},
			}},
		},
		{
			// The tentpole proof scenario: a replica crashes mid-epoch and is
			// restored from the last checkpoint; RunVerified compares the
			// final weights against an uninterrupted twin bit for bit.
			Name: "crash-recovery", Seed: 23, Replicas: 2, Engine: "seq", Sync: "sync-grad",
			Samples: samples, Epochs: 2, CheckpointEvery: samples / 2,
			Faults: []chaos.Fault{{Kind: chaos.CrashReplica, Replica: 1, At: samples + samples/4}},
		},
		{
			// A checkpoint write fails before the crash, so recovery falls
			// back to the previous snapshot and pays a larger recompute
			// window — still bit-exact.
			Name: "ckpt-fail-recovery", Seed: 24, Replicas: 2, Engine: "seq", Sync: "sync-grad",
			Samples: samples, Epochs: 2, CheckpointEvery: samples / 2,
			Faults: []chaos.Fault{
				{Kind: chaos.FailCheckpoint, At: 2},
				{Kind: chaos.CrashReplica, Replica: 0, At: samples + samples/3},
			},
		},
		{
			// Elastic membership: one replica leaves at a sync boundary and a
			// fresh one joins later, resharding the stream both times.
			Name: "elastic-remove-join", Seed: 25, Replicas: 2, Engine: "seq", Sync: "sync-grad",
			Samples: samples, Epochs: 2,
			Elastic: []chaos.Membership{
				{AtSample: samples / 2, Remove: 1},
				{AtSample: samples + samples/2, Remove: -1},
			},
		},
	}
}

// ChaosScenarios runs the chaos/recovery scenario suite: deterministic
// stochastic fault injection (internal/chaos) against the replicated
// pipelines, proving crash recovery bit-exact where the engine permits.
func ChaosScenarios(w io.Writer, s Scale) {
	// Chaos sample counts stay moderate even at the full scale: the suite's
	// point is schedule coverage, not convergence.
	samples := 32
	if s.Name != "bench" {
		samples = 64
	}
	trainSet, _ := data.GaussianBlobs(8, 4, samples*2, 0, 2.5, 1.0, 7)
	build := func(seed int64) *nn.Network { return models.DeepMLP(8, 12, 4, 4, seed) }

	dir, err := os.MkdirTemp("", "chaos")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	fmt.Fprintf(w, "Chaos scenarios — %d samples/epoch, 2 epochs, DeepMLP 4 stages (scale=%s)\n", samples, s.Name)
	tab := metrics.NewTable("SCENARIO", "R", "ENGINE/SYNC", "FAULTS", "RECOMPUTED", "UTIL", "LOSS", "BIT-EXACT")
	for _, spec := range chaosScenarios(samples) {
		r := &chaos.Runner{Spec: spec, Build: build, Data: trainSet, Dir: dir}
		rep, err := r.RunVerified(context.Background())
		if err != nil {
			panic(fmt.Sprintf("chaos scenario %s: %v", spec.Name, err))
		}
		exact := "n/a"
		if rep.ExactChecked {
			exact = fmt.Sprint(rep.RecoveredExact)
		}
		faults := fmt.Sprintf("%dc/%ds/%df", rep.Crashes, rep.Removed+rep.Joined, rep.FailedSaves)
		tab.AddRow(spec.Name, rep.Replicas, spec.Engine+"/"+spec.Sync,
			faults, rep.Recomputed, fmt.Sprintf("%.2f", rep.Utilization),
			fmt.Sprintf("%.3f", rep.FinalLoss), exact)
		if rep.ExactChecked {
			fmt.Fprintf(w, "%s: recovered bit-exact: %v\n", spec.Name, rep.RecoveredExact)
		}
	}
	fmt.Fprint(w, tab.String())
	fmt.Fprintln(w, "faults column: crashes/membership changes/failed saves")
}
