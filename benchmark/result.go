package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
)

const resultSchema = "repro/benchmark/v1"

// e2eValue is one end-to-end metric of one workload: the median over the
// timed segments and their spread, (q3−q1)/median.
type e2eValue struct {
	Median   float64   `json:"median"`
	Spread   float64   `json:"spread"`
	Unit     string    `json:"unit"`
	Segments []float64 `json:"segments"`
}

// metricValue is one reported number with its unit: a per-layer metric in a
// result file, any metric on the gate's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is both passes of one workload.
type workloadResult struct {
	Name      string   `json:"name"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems"`
	// LossChecksum is the FNV-64 of the end-to-end pass's per-epoch loss
	// bits (train-* only); identical across runs on the seq engine.
	LossChecksum string                 `json:"loss_checksum,omitempty"`
	EndToEnd     map[string]e2eValue    `json:"end_to_end"`
	PerLayer     map[string]metricValue `json:"per_layer"`
	Trace        string                 `json:"trace,omitempty"`
}

// resultFile is what suite mode writes with -out and -agree reads.
type resultFile struct {
	Schema     string           `json:"schema"`
	Commit     string           `json:"commit"`
	GoVersion  string           `json:"go_version"`
	GOAMD64    string           `json:"goamd64"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Claim      *string          `json:"claim"` // this benchmark claims no gain: always null
	Workloads  []workloadResult `json:"workloads"`
}

func (rf *resultFile) write(path string) error {
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	return nil
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rf.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rf.Schema, resultSchema)
	}
	return &rf, nil
}

// environment stamps a result file with what the numbers depend on.
func environment(o runOpts) *resultFile {
	rf := &resultFile{
		Schema: resultSchema, Commit: "unknown", GoVersion: runtime.Version(), GOAMD64: "v1",
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: o.seed, Seconds: o.seconds,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				rf.GOAMD64 = s.Value
			}
		}
	}
	// Best effort: the gate's checkout is not a git repository.
	if head, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		rf.Commit = strings.TrimSpace(string(head))
	}
	return rf
}

// suite runs both passes of every workload (or only the named one), prints
// every metric with its unit and workload, and returns the result file. ok
// is false when any output check failed; a nil file means nothing could run.
func suite(out io.Writer, only string, o runOpts) (rf *resultFile, ok bool) {
	rf, ok = environment(o), true
	fmt.Fprintf(out, "benchmark: GOMAXPROCS=%d %s GOAMD64=%s seed=%d commit=%s\n", rf.GOMAXPROCS, rf.GoVersion, rf.GOAMD64, rf.Seed, rf.Commit)
	for i := range workloads {
		w := &workloads[i]
		if only != "" && w.name != only {
			continue
		}
		wr := workloadResult{Name: w.name, Problems: []string{}, EndToEnd: map[string]e2eValue{}, PerLayer: map[string]metricValue{}}
		for _, traced := range []bool{false, true} {
			po := o
			po.traced = traced
			p, err := runPass(w, po)
			if err != nil {
				fmt.Fprintf(out, "%s: %v\n", w.name, err)
				return nil, false
			}
			wr.Attempted += p.attempted
			wr.Failed += p.failed
			wr.Problems = append(wr.Problems, p.problems...)
			if !traced {
				wr.LossChecksum = p.checksum
				for _, m := range endToEnd {
					segs := p.segments[m.name]
					wr.EndToEnd[m.name] = e2eValue{Median: median(segs), Spread: spread(segs), Unit: m.unit, Segments: segs}
					fmt.Fprintf(out, "%-22s %-32s %14.4f %-8s spread %.3f\n", w.name, m.name, median(segs), m.unit, spread(segs))
				}
				continue
			}
			wr.Trace = p.tracePath
			for _, r := range p.traceSelf {
				fmt.Fprintf(out, "%-22s trace %-20s calls %8d  total %10.3f ms  self %10.3f ms\n", w.name, r.name, r.calls, float64(r.sum)/1e6, float64(r.selfNs)/1e6)
			}
			for _, m := range perLayer {
				wr.PerLayer[m.name] = metricValue{Value: p.layer[m.name], Unit: m.unit}
				fmt.Fprintf(out, "%-22s %-32s %14.4f %-8s\n", w.name, m.name, p.layer[m.name], m.unit)
			}
		}
		fmt.Fprintf(out, "%-22s attempted %d failed %d", w.name, wr.Attempted, wr.Failed)
		if wr.LossChecksum != "" {
			fmt.Fprintf(out, " core.loss_checksum %s", wr.LossChecksum)
		}
		fmt.Fprintln(out)
		for _, problem := range wr.Problems {
			fmt.Fprintf(out, "%-22s CHECK FAILED: %s\n", w.name, problem)
		}
		ok = ok && len(wr.Problems) == 0 && wr.Failed == 0
		rf.Workloads = append(rf.Workloads, wr)
	}
	if len(rf.Workloads) == 0 {
		fmt.Fprintf(out, "unknown workload %q (see -list)\n", only)
		return nil, false
	}
	return rf, ok
}

// Agreement verdicts for one (workload, end-to-end metric) pair.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"  // b's median is worse than a's by more than the bound
	verdictUnresolved = "unresolved" // a run's own spread is wider than the bound
)

// verdictOf compares b against a for one metric.
func verdictOf(m metricSpec, a, b e2eValue) string {
	if a.Median == 0 {
		return verdictUnresolved
	}
	worse := (b.Median - a.Median) / a.Median
	if m.better == "higher" {
		worse = -worse
	}
	switch {
	// Like the gate, set-up time is judged on its medians alone: the first
	// set-up of a process is cold, so five of them always spread widely.
	case m.name != "setup_s" && (a.Spread > m.bound || b.Spread > m.bound):
		return verdictUnresolved
	case worse > m.bound:
		return verdictRegressed
	}
	return verdictOK
}

// agreeFiles prints one row per (workload, end-to-end metric) of result files
// a and b and reports whether nothing regressed. The seq engine's loss
// checksum gets a row of its own: on one machine it must repeat exactly.
func agreeFiles(out io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	byName := map[string]workloadResult{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	fmt.Fprintf(out, "%-22s %-18s %14s %8s %14s %8s %6s  %s\n", "workload", "metric", "a.median", "a.spread", "b.median", "b.spread", "bound", "verdict")
	good := true
	for _, wa := range a.Workloads {
		wb, found := byName[wa.Name]
		if !found {
			return false, fmt.Errorf("%s has no workload %s", pathB, wa.Name)
		}
		for _, m := range endToEnd {
			va, vb := wa.EndToEnd[m.name], wb.EndToEnd[m.name]
			v := verdictOf(m, va, vb)
			good = good && v != verdictRegressed
			fmt.Fprintf(out, "%-22s %-18s %14.4f %8.3f %14.4f %8.3f %6.2f  %s\n", wa.Name, m.name, va.Median, va.Spread, vb.Median, vb.Spread, m.bound, v)
		}
		if wa.Name == "train-resnet-seq" && a.Seed == b.Seed {
			v := verdictOK
			if wa.LossChecksum != wb.LossChecksum {
				v, good = verdictRegressed, false
			}
			fmt.Fprintf(out, "%-22s %-18s %14s %8s %14s %8s %6s  %s\n", wa.Name, "core.loss_checksum", wa.LossChecksum, "", wb.LossChecksum, "", "exact", v)
		}
	}
	return good, nil
}
