// Command experiments regenerates the paper's tables and figures. Each
// experiment is selected by name (or "all"); -scale picks the workload size.
//
// Usage:
//
//	experiments -list
//	experiments -run fig8 -scale default
//	experiments -run all -scale bench
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/exp"
)

// registry maps experiment names to runners.
var registry = map[string]func(io.Writer, exp.Scale){
	"fig2":        exp.Fig2Utilization,
	"fig3":        exp.Fig3ImpulseResponse,
	"fig4":        exp.Fig4RootHeatmaps,
	"fig5":        exp.Fig5HalflifeVsKappa,
	"fig6":        exp.Fig6HalflifeVsDelay,
	"fig7":        exp.Fig7HorizonMomentum,
	"fig8":        exp.Fig8CIFARResNet20,
	"fig9":        exp.Fig9ImageNetResNet50,
	"fig10":       exp.Fig10InconsistencyVsDelay,
	"fig12":       exp.Fig12HorizonScaleQuadratic,
	"fig13":       exp.Fig13HorizonScaleNN,
	"fig14":       exp.Fig14MomentumSweep,
	"fig16":       exp.Fig16EngineValidation,
	"fig17":       exp.Fig17BatchScaling,
	"table2":      exp.Table2WeightStashing,
	"warmup":      exp.AblationWarmup,
	"gradshrink":  exp.AblationGradShrink,
	"adam":        exp.AblationAdamDelay,
	"asgd":        exp.AblationASGD,
	"normdelay":   exp.AblationNormDelay,
	"granularity": exp.AblationGranularity,
	"memory":      exp.AppendixAMemory,
	"chaos":       exp.ChaosScenarios,
	"table3":      exp.Table3SpecTrain,
	"table4":      exp.Table4Overcompensation,
	"table6":      exp.Table6LWPForms,
}

func main() {
	run := flag.String("run", "", "experiment name (fig2..fig17, table1..table6, or 'all')")
	scaleName := flag.String("scale", "default", "workload scale: bench, default, full")
	deep := flag.Bool("deep", false, "include RN56/RN110 in table1")
	list := flag.Bool("list", false, "list available experiments")
	flag.Parse()

	if *list || *run == "" {
		names := make([]string, 0, len(registry)+1)
		for n := range registry {
			names = append(names, n)
		}
		names = append(names, "table1")
		sort.Strings(names)
		fmt.Println("available experiments:", strings.Join(names, " "))
		fmt.Println("scales: bench default full")
		return
	}

	var scale exp.Scale
	switch *scaleName {
	case "bench":
		scale = exp.Bench
	case "default":
		scale = exp.Default
	case "full":
		scale = exp.Full
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleName)
		os.Exit(2)
	}

	runOne := func(name string) {
		fmt.Printf("==== %s ====\n", name)
		if name == "table1" {
			exp.Table1CIFARFamilies(os.Stdout, scale, *deep)
			fmt.Println()
			return
		}
		fn, ok := registry[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", name)
			os.Exit(2)
		}
		fn(os.Stdout, scale)
		fmt.Println()
	}

	if *run == "all" {
		order := []string{"fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
			"fig8", "fig9", "fig10", "fig12", "fig13", "fig14", "fig16", "fig17",
			"table1", "table2", "table3", "table4", "table6",
			"warmup", "gradshrink", "adam", "asgd", "normdelay", "granularity", "memory", "chaos"}
		for _, n := range order {
			runOne(n)
		}
		return
	}
	for _, n := range strings.Split(*run, ",") {
		runOne(strings.TrimSpace(n))
	}
}
