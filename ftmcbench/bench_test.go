package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"repro/internal/expt"
)

// binDir holds ftmc-serve and ftmc-worker, built once for all tests.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "ftmcbench-bin")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "repro/cmd/ftmc-serve", "repro/cmd/ftmc-worker")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building the driven binaries:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// syncBuffer is a log the benchmark and its child processes' stderr
// copiers can write concurrently.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// tinyRun runs one workload at the tiny size for one second.
func tinyRun(t *testing.T, workload string, traced, corrupt bool) (result, string) {
	t.Helper()
	var log syncBuffer
	r := &run{
		workload: workload, seed: 7, seconds: 1, traced: traced, corrupt: corrupt,
		bin: binDir, out: t.TempDir(), size: tinySize, log: &log,
	}
	res, err := r.execute()
	if err != nil {
		t.Fatalf("%s (trace=%v): %v\n%s", workload, traced, err, log.String())
	}
	return res, log.String()
}

func workloadNames() []string {
	var names []string
	for w := range workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	return names
}

// Every workload completes at the tiny size with error_rate 0 and prints
// every metric of its mode, timed and traced.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloadNames() {
		for _, traced := range []bool{false, true} {
			res, log := tinyRun(t, w, traced, false)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace=%v): correct=%v failed=%d attempted=%d\n%s", w, traced, res.Correct, res.Failed, res.Attempted, log)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s (trace=%v): %d metrics, want %d", w, traced, len(res.Metrics), len(defs))
			}
			if !traced {
				for name, m := range res.Metrics {
					if !(m.Value > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, m.Value)
					}
				}
			}
		}
	}
}

// A deliberately corrupted expected output is reported as a failure, on
// every workload: the checks can fail.
func TestCorruptedExpectationFails(t *testing.T) {
	for _, w := range workloadNames() {
		res, log := tinyRun(t, w, false, true)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted expectation passed (failed=%d)\n%s", w, res.Failed, log)
		}
	}
}

// The Fig. 3 check compares both ratios of every curve with its
// recomputation: a figure off by one set in either the baseline or the
// adapted ratio of one point fails the run.
func TestFig3CheckCatchesEachRatio(t *testing.T) {
	cfg := expt.PaperCampaign(tinySize.setsPerPoint, 7)
	res, err := expt.Campaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	check := func() int64 {
		var log syncBuffer
		r := &run{log: &log, extra: map[string]any{}, attempted: 1}
		r.checkFig3(cfg, res)
		return r.failed
	}
	if f := check(); f != 0 {
		t.Fatalf("the unmodified figure failed the check")
	}
	step := 1 / float64(cfg.SetsPerPoint)
	c := res.Panels[1].Curves[1]
	last := len(cfg.Utils) - 1
	for name, ratio := range map[string]*float64{"baseline": &c.Baseline[0], "adapted": &c.Adapted[last]} {
		orig := *ratio
		*ratio += step
		if check() == 0 {
			t.Errorf("a figure with one %s acceptance too many passed the check", name)
		}
		*ratio = orig
	}
}

// The printed metric names and units, and the workload names, match
// BENCHMARK.json exactly.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if fmt.Sprint(names) != fmt.Sprint(workloadNames()) {
		t.Errorf("workloads: BENCHMARK.json %v, command %v", names, workloadNames())
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), command %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

// The same seed gives the same inputs; another seed gives others.
func TestCorpusDeterministic(t *testing.T) {
	stream := func(seed int64) []vreq {
		m, err := newMissStream(seed, 200)
		if err != nil {
			t.Fatal(err)
		}
		return m.reqs
	}
	a, b, c := stream(3), stream(3), stream(4)
	if len(a) != len(b) {
		t.Fatalf("corpus lengths %d and %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("request %d differs between two draws of seed 3", i)
		}
	}
	if bytes.Equal(a[0].body, c[0].body) {
		t.Error("seeds 3 and 4 start with the same request")
	}
	seen := map[string]bool{}
	for _, q := range a {
		k := fmt.Sprintf("%d/%s", q.opt, q.set)
		if seen[k] {
			t.Fatalf("request repeated in the miss corpus: %s", k)
		}
		seen[k] = true
	}
}
