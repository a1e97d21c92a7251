// Command utilization prints the fill-and-drain vs pipelined-backpropagation
// utilization analysis (Fig. 2, Eq. 1) for arbitrary pipeline depths and
// batch sizes, with optional schedule diagrams. The table over the paper's
// depths is Fig. 2 (go run ./cmd/experiments -run fig2); measured engine
// throughput and utilization live in the benchmark (go run ./benchmark).
//
// Usage:
//
//	utilization -stages 34 -batch 1
//	utilization -diagram -stages 6 -batch 2
package main

import (
	"flag"
	"fmt"

	"repro/internal/schedviz"
)

func main() {
	stages := flag.Int("stages", 34, "pipeline depth S")
	batch := flag.Int("batch", 1, "update size N")
	diagram := flag.Bool("diagram", false, "print schedule diagrams")
	flag.Parse()

	fd := schedviz.FillDrain(*stages, *batch, 1)
	pb := schedviz.Pipelined(*stages, 10**stages)
	fmt.Printf("S=%d, N=%d\n", *stages, *batch)
	fmt.Printf("fill&drain: steps/batch=%d, utilization=%.3f (Eq.1 bound %.3f)\n",
		schedviz.FillDrainStepsPerBatch(*batch, *stages), fd.WorkUtilization(),
		schedviz.UtilizationBound(*batch, *stages))
	fmt.Printf("pipelined backprop: utilization=%.3f (→1 as the stream grows)\n", pb.WorkUtilization())
	full, partial, idle := fd.Utilization()
	fmt.Printf("fill&drain worker-steps: %.0f%% full, %.0f%% partial, %.0f%% idle\n",
		full*100, partial*100, idle*100)

	if *diagram {
		fmt.Println("\nfill&drain schedule (F/B/X=both/.=idle):")
		fmt.Print(schedviz.FillDrain(*stages, *batch, 2).String())
		fmt.Println("\npipelined backpropagation schedule:")
		fmt.Print(schedviz.Pipelined(*stages, 4**stages).String())
	}
}
