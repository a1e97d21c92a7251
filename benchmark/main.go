// Command benchmark is the repo's one gating benchmark (BENCHMARK.json): seven
// named workloads over the training engines and the serving tier, driven only
// through public functions, each measured end to end with no bus attached and
// again in a traced pass that splits the time layer by layer. README.md in
// this directory explains every workload and metric.
//
//	go run ./benchmark                       # whole suite, both passes
//	go run ./benchmark -workload serve-open  # one workload, both passes
//	go run ./benchmark -list                 # workloads and metrics
//	go run ./benchmark -agree a.json b.json  # compare two result files
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1
//
// The last form is the gate's: one pass of one workload, with one JSON object
// (correct, attempted, failed, metrics) as the last line of standard output.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// gomaxprocs is min(nproc, 4): the suite is sized for a small box and must
// not change shape on a large one.
func gomaxprocs() int { return min(runtime.NumCPU(), 4) }

func main() {
	var (
		name     = flag.String("workload", "", "run only this workload (default: all)")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs (datasets, request bodies, arrivals); models always build with seed 1")
		seconds  = flag.Float64("seconds", 10, "measuring budget per pass")
		trace    = flag.String("trace", "", "gate mode: 0 = one end-to-end pass, 1 = one traced pass; prints one JSON result line")
		list     = flag.Bool("list", false, "print the workloads and metrics, then exit")
		out      = flag.String("out", "", "suite mode: write the result file here")
		traceDir = flag.String("tracedir", "benchmark/out", "where traced passes write trace-<workload>.json")
		smoke    = flag.Bool("smoke", false, "tiny segments, one set-up: checks the plumbing in seconds, measures nothing")
		agree    = flag.Bool("agree", false, "compare the two result files given as arguments")
	)
	flag.Parse()
	runtime.GOMAXPROCS(gomaxprocs())

	switch {
	case *list:
		printList(os.Stdout)
	case *agree:
		if flag.NArg() != 2 {
			fatalf(2, "usage: benchmark -agree a.json b.json")
		}
		ok, err := agreeFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf(2, "agree: %v", err)
		}
		if !ok {
			os.Exit(1)
		}
	case *trace != "":
		if *trace != "0" && *trace != "1" {
			fatalf(2, "-trace must be 0 or 1")
		}
		w := findWorkload(*name)
		if w == nil {
			fatalf(2, "unknown -workload %q (see -list)", *name)
		}
		o := runOpts{seed: *seed, seconds: *seconds, scale: scaleFor(*seconds), setups: 5, traced: *trace == "1", traceDir: *traceDir}
		if !gate(w, o) {
			os.Exit(1)
		}
	default:
		o := runOpts{seed: *seed, seconds: *seconds, scale: scaleFor(*seconds), setups: 5, traceDir: *traceDir}
		if *smoke {
			dir, err := os.MkdirTemp("", "pbbench-smoke-")
			if err != nil {
				fatalf(2, "%v", err)
			}
			o.seconds, o.scale, o.setups, o.traceDir = 0, 0.02, 1, dir
		}
		rf, ok := suite(os.Stdout, *name, o)
		if *smoke {
			os.RemoveAll(o.traceDir)
		}
		if rf == nil {
			os.Exit(2)
		}
		if *out != "" {
			if err := rf.write(*out); err != nil {
				fatalf(2, "%v", err)
			}
			fmt.Println("wrote", *out)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}

// runPass runs one pass of one workload.
func runPass(w *workload, o runOpts) (*passResult, error) {
	ctx := context.Background()
	if w.serve {
		return runServe(ctx, w, o)
	}
	return runTrain(ctx, w, o)
}

// gateResult is the gate's result line.
type gateResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// gate runs one pass and prints its result as the last line of stdout:
// every end-to-end metric (median over segments) untraced, every per-layer
// metric traced.
func gate(w *workload, o runOpts) bool {
	p, err := runPass(w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		return false
	}
	for _, problem := range p.problems {
		fmt.Fprintf(os.Stderr, "benchmark: %s: check failed: %s\n", w.name, problem)
	}
	res := gateResult{Correct: len(p.problems) == 0, Attempted: p.attempted, Failed: p.failed, Metrics: map[string]metricValue{}}
	if o.traced {
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{Value: p.layer[m.name], Unit: m.unit}
		}
	} else {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{Value: median(p.segments[m.name]), Unit: m.unit}
			fmt.Printf("%-24s %-18s median %12.4f %-6s spread %.3f over %d\n",
				w.name, m.name, median(p.segments[m.name]), m.unit, spread(p.segments[m.name]), len(p.segments[m.name]))
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return false
	}
	fmt.Println(string(line))
	return res.Correct && res.Failed == 0
}

// printList prints the workload and metric tables.
func printList(out *os.File) {
	fmt.Fprintln(out, "workloads:")
	for _, w := range workloads {
		fmt.Fprintf(out, "  %-22s %s\n", w.name, w.why)
	}
	fmt.Fprintln(out, "end-to-end metrics (every workload; no bus attached):")
	for _, m := range endToEnd {
		fmt.Fprintf(out, "  %-18s %-6s better %-6s bound %.2f\n", m.name, m.unit, m.better, m.bound)
	}
	fmt.Fprintln(out, "per-layer metrics (traced pass):")
	for _, m := range perLayer {
		fmt.Fprintf(out, "  %-32s %-8s better %-6s -> %s\n", m.name, m.unit, m.better, m.moves)
	}
}
