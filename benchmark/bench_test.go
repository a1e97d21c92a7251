package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"reflect"
	"regexp"
	"sync"
	"testing"
	"time"
)

func TestHighestQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {199, 0.9}, {200, 0.95},
		{999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := highestQuantile(tc.n); got != tc.want {
			t.Errorf("highestQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	sorted := make([]float64, 200)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	// Nearest rank: exactly ten of 200 samples lie beyond the p95.
	if got := quantileSorted(sorted, 0.95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190", got)
	}
	if got := quantileSorted(sorted, 0.5); got != 100 {
		t.Errorf("p50 of 1..200 = %v, want 100", got)
	}
	if got := quantileSorted(sorted, 1); got != 200 {
		t.Errorf("max of 1..200 = %v, want 200", got)
	}
}

func TestSpreadIsQuartileDistanceOverMedian(t *testing.T) {
	// Values checked against Python's statistics.quantiles(v, n=4).
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{5, 1, 3, 2, 4})
	if q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v, %v, want 1.5, 4.5", q1, q3)
	}
	if got := spread([]float64{90, 100, 120}); got != 0.3 {
		t.Errorf("spread of three segments = %v, want (max-min)/median = 0.3", got)
	}
	if spread([]float64{7}) != 0 || spread(nil) != 0 {
		t.Error("spread of fewer than two values must be 0")
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a, b := poissonSchedule(7, 4000, openRate), poissonSchedule(7, 4000, openRate)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, 4000, openRate)) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("schedule goes backwards at %d", i)
		}
	}
	// 4000 arrivals at 800/s take 5 s on average; 3 sigma is under 5 %.
	if got := a[len(a)-1].Seconds(); got < 4.75 || got > 5.25 {
		t.Errorf("4000 arrivals at %v/s span %.3f s, want about 5", openRate, got)
	}
}

// stallHandler answers every request with class 0 and serves one request at
// a time; request number stallAt (in arrival order) holds the server for
// stall.
type stallHandler struct {
	mu      sync.Mutex
	seen    int
	stallAt int
	stall   time.Duration
}

func (h *stallHandler) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.seen == h.stallAt {
		time.Sleep(h.stall)
	}
	h.seen++
	_, _ = w.Write([]byte(`{"class":0}`)) // ResponseRecorder.Write cannot fail
}

func TestOpenLoopChargesLatencyFromDueTime(t *testing.T) {
	const stall = 50 * time.Millisecond
	due := make([]time.Duration, 20)
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	latePct := func(res []reqResult) float64 {
		var late []float64
		for _, r := range res {
			late = append(late, r.lateMs)
		}
		return quantileSorted(sortedCopy(late), 0.95)
	}

	// A stall in the server: the generator keeps its schedule, and every
	// request due during the stall inherits what is left of it.
	h := &stallHandler{stallAt: 0, stall: stall}
	send := func(i int, at time.Time) reqResult { return doRequest(h, nil, 0, at, nil, i) }
	res, _ := openLoop(time.Now(), due, send)
	for i, r := range res {
		if !r.ok {
			t.Fatalf("request %d not ok (status %d)", i, r.status)
		}
		if want := float64(stall-due[i]) / float64(time.Millisecond); r.latMs < want-1 {
			t.Errorf("request %d due %v into a %v stall: latency %.2f ms, want >= %.2f", i, due[i], stall, r.latMs, want)
		}
	}
	if late := latePct(res); late > 25 {
		t.Errorf("server stall made the generator %.2f ms late at p95; it must not block on responses", late)
	}

	// A stall in the generator: it starts 50 ms behind its schedule, so the
	// requests are sent late; latency still counts from when they were due,
	// and the lateness is reported.
	h = &stallHandler{stallAt: -1}
	res, _ = openLoop(time.Now().Add(-stall), due, send)
	for i, r := range res {
		if r.latMs < r.lateMs || r.lateMs < float64(stall-due[i])/float64(time.Millisecond)-1 {
			t.Errorf("request %d: latency %.2f ms, late %.2f ms; both must include the generator's %v delay", i, r.latMs, r.lateMs, stall-due[i])
		}
	}
	if late := latePct(res); late < 45 {
		t.Errorf("gen_late p95 = %.2f ms, want about %v", late, stall)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{Name: "root", StartNs: 0, EndNs: 100, ID: 1},
		{Name: "a", StartNs: 10, EndNs: 40, ID: 2, Parent: 1},
		{Name: "b", StartNs: 30, EndNs: 60, ID: 3, Parent: 1},  // overlaps a by 10
		{Name: "c", StartNs: 90, EndNs: 120, ID: 4, Parent: 1}, // outlives the parent by 20
		{Name: "leaf", StartNs: 12, EndNs: 20, ID: 5, Parent: 2},
	}
	self := selfTimes(spans)
	// root: 100 − (10..60 = 50) − (90..100 = 10) = 40.
	for id, want := range map[int]int64{1: 40, 2: 22, 3: 30, 4: 30, 5: 8} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	rows := selfByName(spans)
	if len(rows) != 5 || rows[0] != (selfRow{name: "root", calls: 1, selfNs: 40, sum: 100}) {
		t.Errorf("selfByName: %+v, want root (self 40 of 100) first of 5", rows)
	}
}

func TestTracerRecordsParentAndTrace(t *testing.T) {
	trc := newTracer()
	root := trc.begin("request", 0, 7)
	kid := trc.begin("handler", root, 7)
	if d := trc.end(kid); d < 0 {
		t.Errorf("negative duration %v", d)
	}
	trc.end(root)
	path, _, err := trc.write(t.TempDir(), "unit")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []span
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Parent != got[0].ID || got[1].Trace != 7 || got[0].EndNs < got[1].EndNs {
		t.Errorf("trace file round trip: %+v", got)
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", 0, 0); id != 0 || nilTracer.end(id) != 0 {
		t.Error("a nil tracer must record nothing")
	}
}

func TestAgreeVerdicts(t *testing.T) {
	higher := metricSpec{name: "throughput_per_s", better: "higher", bound: 0.08}
	lower := metricSpec{name: "latency_p50_ms", better: "lower", bound: 0.10}
	for _, tc := range []struct {
		m    metricSpec
		a, b e2eValue
		want string
	}{
		{higher, e2eValue{Median: 100, Spread: 0.02}, e2eValue{Median: 95, Spread: 0.02}, verdictOK},
		{higher, e2eValue{Median: 100, Spread: 0.02}, e2eValue{Median: 91, Spread: 0.02}, verdictRegressed},
		{higher, e2eValue{Median: 100, Spread: 0.02}, e2eValue{Median: 130, Spread: 0.02}, verdictOK},
		{higher, e2eValue{Median: 100, Spread: 0.09}, e2eValue{Median: 91, Spread: 0.02}, verdictUnresolved},
		{lower, e2eValue{Median: 10, Spread: 0.01}, e2eValue{Median: 10.9, Spread: 0.01}, verdictOK},
		{lower, e2eValue{Median: 10, Spread: 0.01}, e2eValue{Median: 11.1, Spread: 0.01}, verdictRegressed},
		{lower, e2eValue{Median: 10, Spread: 0.01}, e2eValue{Median: 11.1, Spread: 0.2}, verdictUnresolved},
	} {
		if got := verdictOf(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: a=%v b=%v: verdict %s, want %s", tc.m.name, tc.a, tc.b, got, tc.want)
		}
	}

	// End to end through files: a 20 % throughput loss must fail the command.
	dir := t.TempDir()
	file := func(name string, tput float64, checksum string) string {
		rf := resultFile{Schema: resultSchema, Seed: 1, Workloads: []workloadResult{{
			Name: "train-resnet-seq", LossChecksum: checksum, EndToEnd: map[string]e2eValue{},
		}}}
		for _, m := range endToEnd {
			rf.Workloads[0].EndToEnd[m.name] = e2eValue{Median: 1, Spread: 0.01}
		}
		rf.Workloads[0].EndToEnd["throughput_per_s"] = e2eValue{Median: tput, Spread: 0.01}
		path := dir + "/" + name
		if err := rf.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := file("a.json", 1000, "00ff")
	var out bytes.Buffer
	if ok, err := agreeFiles(&out, a, file("same.json", 990, "00ff")); err != nil || !ok {
		t.Errorf("1 %% apart: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if ok, err := agreeFiles(&out, a, file("slow.json", 800, "00ff")); err != nil || ok {
		t.Errorf("20 %% slower: ok=%v err=%v, want a regression", ok, err)
	}
	if ok, err := agreeFiles(&out, a, file("drift.json", 1000, "00fe")); err != nil || ok {
		t.Errorf("changed seq loss checksum: ok=%v err=%v, want a regression", ok, err)
	}
}

// benchmarkJSON mirrors the keys of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var bj benchmarkJSON
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json to the tables in
// spec.go, which are what the program prints.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, spec.go %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, spec.go %q / %q", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, spec.go %d", len(bj.EndToEnd), len(endToEnd))
	}
	setupBound, maxBound := 0.0, 0.0
	for i, m := range endToEnd {
		got := bj.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != m.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, spec.go %+v", i, got, m)
		}
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
		maxBound = max(maxBound, m.bound)
		if m.name == "setup_s" {
			setupBound = m.bound
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s must exist and carry the largest bound (has %v, max %v)", setupBound, maxBound)
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, spec.go %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if got := bj.PerLayer[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, spec.go %+v", i, got, m)
		}
	}
}

// TestSmokeEmitsExactlyTheListedMetrics runs every workload through both
// passes at a fiftieth of the reference size and checks that what comes out
// is what BENCHMARK.json lists: every workload, every metric, nothing else.
func TestSmokeEmitsExactlyTheListedMetrics(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	var out bytes.Buffer
	rf, ok := suite(&out, "", runOpts{seed: 1, scale: 0.02, setups: 1, traceDir: t.TempDir()})
	if rf == nil || !ok {
		t.Fatalf("smoke suite failed:\n%s", out.String())
	}
	if rf.Claim != nil {
		t.Error("the benchmark claims no gain: claim must be null")
	}
	if rf.GOMAXPROCS != gomaxprocs() || rf.GoVersion == "" || rf.GOAMD64 == "" || rf.Seed != 1 {
		t.Errorf("result file environment incomplete: %+v", rf)
	}
	nameRe := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	if len(rf.Workloads) != len(bj.Workloads) {
		t.Fatalf("suite ran %d workloads, BENCHMARK.json lists %d", len(rf.Workloads), len(bj.Workloads))
	}
	for i, wr := range rf.Workloads {
		if wr.Name != bj.Workloads[i].Name || !nameRe.MatchString(wr.Name) {
			t.Errorf("workload %d is %q, BENCHMARK.json lists %q", i, wr.Name, bj.Workloads[i].Name)
		}
		if wr.Attempted < 1 || wr.Failed != 0 {
			t.Errorf("%s: attempted %d failed %d", wr.Name, wr.Attempted, wr.Failed)
		}
		want := map[string]bool{}
		for _, m := range bj.EndToEnd {
			want[m.Name] = true
			v, ok := wr.EndToEnd[m.Name]
			// Everything is positive except that a race-instrumented build
			// is slow enough for no operation to meet its latency limit.
			positive := v.Median > 0 || (m.Name == "slo_ok_share" && v.Median == 0)
			if !ok || !positive || v.Unit != m.Unit || !nameRe.MatchString(m.Name) {
				t.Errorf("%s: end-to-end %s = %+v (present %v); must be listed, positive and in %s", wr.Name, m.Name, v, ok, m.Unit)
			}
		}
		for name := range wr.EndToEnd {
			if !want[name] {
				t.Errorf("%s emitted unlisted end-to-end metric %s", wr.Name, name)
			}
		}
		want = map[string]bool{}
		for _, m := range bj.PerLayer {
			want[m.Name] = true
			if v, ok := wr.PerLayer[m.Name]; !ok || v.Unit != m.Unit || !nameRe.MatchString(m.Name) {
				t.Errorf("%s: per-layer %s = %+v (present %v)", wr.Name, m.Name, v, ok)
			}
		}
		for name := range wr.PerLayer {
			if !want[name] {
				t.Errorf("%s emitted unlisted per-layer metric %s", wr.Name, name)
			}
		}
		if _, err := os.Stat(wr.Trace); err != nil {
			t.Errorf("%s: trace file: %v", wr.Name, err)
		}
	}
}
