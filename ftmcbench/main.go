// Command ftmcbench is the repository's end-to-end benchmark. It runs one
// named workload from a seed against the real programs — ftmc-serve over
// loopback HTTP, ftmc-worker subprocesses on pipes, expt.Campaign
// in-process — checks every output against an independent recomputation,
// and prints the metrics as the last line of standard output:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
// With --trace 0 the metrics are the end-to-end ones (endToEnd); with
// --trace 1 a separate traced run times the calls into each layer from
// this package and prints the per-layer ones (perLayer), writes its spans
// to <out>/trace/ and a self-time summary to standard error.
//
// run.sh builds this command together with ftmc-serve and ftmc-worker and
// passes --bin and --out; see README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// metricDef is one printed metric: its name and unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run, on every workload. A layer
// the workload does not exercise reads 0 (see README.md).
var perLayer = []metricDef{
	{"task.decode_us", "us"},
	{"task.hash_ns", "ns"},
	{"serve.http_us", "us"},
	{"serve.hit_us", "us"},
	{"serve.hit_ratio", "ratio"},
	{"serve.miss_wait_us", "us"},
	{"serve.batch_width_mean", "count"},
	{"core.line2_us", "us"},
	{"core.line4_us", "us"},
	{"core.line8_us", "us"},
	{"core.final_pfh_us", "us"},
	{"core.line4_share", "ratio"},
	{"core.line8_probes_per_verdict", "count"},
	{"safety.eq5_us", "us"},
	{"safety.line4_probes_per_search", "count"},
	{"safety.shard_hit_ratio", "ratio"},
	{"safety.cache_hit_ratio", "ratio"},
	{"safety.batch_width_mean", "count"},
	{"mcsched.test_ns", "ns"},
	{"gen.draw_us", "us"},
	{"gen.draw_share", "ratio"},
	{"expt.point_ms", "ms"},
	{"expt.sched_memo_hit_ratio", "ratio"},
	{"expt.batched_probes_per_set", "count"},
	{"expt.pool_steals", "count/dispatch"},
	{"expt.pool_chunk_us", "us"},
	{"expt.dist.lease_ms", "ms"},
	{"expt.dist.lease_p99_ms", "ms"},
	{"expt.dist.bytes_per_lease", "B"},
	{"expt.dist.leases", "count/figure"},
	{"expt.dist.reassigned", "count"},
	{"expt.dist.coord_cpu_us_per_set", "us"},
	{"trace.coverage", "ratio"},
	{"trace.overhead", "ratio"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"verdict_miss":   func(r *run) error { return runVerdict(r, false) },
	"verdict_repeat": func(r *run) error { return runVerdict(r, true) },
	"campaign_fig3":  runFig3,
	"campaign_dist":  runDist,
}

// sizing scales a workload. fullSize is what the command runs; the
// self-tests use tinySize.
type sizing struct {
	setsPerPoint int           // sets per utilization point of the campaign figure
	replaySets   int           // leading sets per point replayed stage by stage (traced campaigns)
	setupMin     int           // set-ups per run at least; setup_s is their median
	setupBudget  time.Duration // further set-ups until this much time is spent on them
	repeatPool   int           // multisets resident in the verdict cache (verdict_repeat)
	repeatRing   int           // pre-built permuted bodies cycled by verdict_repeat
	missSetup    int           // verdict_miss corpus: requests built in each timed set-up
	missRate     int           // verdict_miss corpus: requests per second of run, built untimed
	leaseSets    int           // campaign_dist lease size
	replayMax    int           // cap on replayed samples in a traced run
}

var fullSize = sizing{
	setsPerPoint: 500, replaySets: 8, setupMin: 5, setupBudget: time.Second / 2,
	repeatPool: 256, repeatRing: 8192, missSetup: 1024, missRate: 3000,
	leaseSets: 16, replayMax: 4000,
}

var tinySize = sizing{
	setsPerPoint: 12, replaySets: 2, setupMin: 1,
	repeatPool: 6, repeatRing: 64, missSetup: 64, missRate: 1000,
	leaseSets: 4, replayMax: 40,
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	bin      string // directory holding ftmc-serve and ftmc-worker
	out      string // directory for spans and run records
	size     sizing
	// corrupt flips one expected output before the checks run, so the
	// self-tests can prove the checks fail when they should.
	corrupt bool
	log     io.Writer

	prov      provenance
	tr        *tracer
	attempted int64
	failed    int64
	values    map[string]float64
	extra     map[string]any // reported on stderr and in the run record only
}

// result is the last line of standard output.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]metricResult `json:"metrics"`
}

type metricResult struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "workload name: verdict_miss, verdict_repeat, campaign_fig3 or campaign_dist")
	seed := flag.Int64("seed", 1, "workload seed; every input is generated from it")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the timed one")
	bin := flag.String("bin", ".bench_build/bin", "directory holding the ftmc-serve and ftmc-worker binaries")
	out := flag.String("out", ".bench_build", "directory for span files and run records")
	flag.Parse()

	r := &run{
		workload: *workload, seed: *seed, seconds: float64(*seconds),
		traced: *trace == 1, bin: *bin, out: *out, size: fullSize, log: os.Stderr,
	}
	res, err := r.execute()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftmcbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftmcbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(3)
	}
}

// execute runs the workload and assembles the result. An error means no
// result could be produced (bad arguments, a program that would not
// start); wrong outputs are counted in the result instead.
func (r *run) execute() (result, error) {
	runWorkload, ok := workloads[r.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", r.workload)
	}
	if r.seconds < 1 {
		return result{}, fmt.Errorf("--seconds must be at least 1")
	}
	if r.traced {
		r.tr = newTracer()
	}
	r.values = make(map[string]float64)
	r.extra = make(map[string]any)
	r.prov = newProvenance(r.seed)
	if err := runWorkload(r); err != nil {
		return result{}, err
	}
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricResult, len(defs)),
	}
	if res.Attempted < 1 {
		return result{}, fmt.Errorf("workload %s attempted nothing", r.workload)
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return result{}, fmt.Errorf("workload %s did not measure %s", r.workload, d.name)
		}
		res.Metrics[d.name] = metricResult{Value: v, Unit: d.unit}
	}
	r.report(res)
	if r.traced {
		r.finishTrace()
	}
	return res, nil
}

// report prints the human-readable account to the log and writes the run
// record (provenance, result, extras) under <out>/runs/.
func (r *run) report(res result) {
	fmt.Fprintf(r.log, "ftmcbench: workload=%s seed=%d seconds=%g trace=%v\n", r.workload, r.seed, r.seconds, r.traced)
	fmt.Fprintf(r.log, "  provenance: git_rev=%q git_dirty=%v baseline_eligible=%v (%s) num_cpu=%d gomaxprocs=%d\n",
		r.prov.GitRev, r.prov.GitDirty, r.prov.BaselineEligible, r.prov.Eligibility, r.prov.Bench.NumCPU, r.prov.Bench.GOMAXPROCS)
	for _, p := range r.prov.Processes {
		fmt.Fprintf(r.log, "  process: %s FTMC_WORKERS=%s GOMAXPROCS=%s\n", p.Role, p.FTMCWorkers, p.GOMAXPROCS)
	}
	errorRate := float64(res.Failed) / float64(res.Attempted)
	fmt.Fprintf(r.log, "  attempted=%d failed=%d error_rate=%g\n", res.Attempted, res.Failed, errorRate)
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(r.log, "  %-34s %14.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	for _, k := range sortedKeys(r.extra) {
		fmt.Fprintf(r.log, "  %-34s %v\n", k, r.extra[k])
	}
	rec := struct {
		Workload   string         `json:"workload"`
		Seed       int64          `json:"seed"`
		Seconds    float64        `json:"seconds"`
		Trace      bool           `json:"trace"`
		Provenance provenance     `json:"provenance"`
		ErrorRate  float64        `json:"error_rate"`
		Result     result         `json:"result"`
		Extra      map[string]any `json:"extra"`
	}{r.workload, r.seed, r.seconds, r.traced, r.prov, errorRate, res, r.extra}
	name := fmt.Sprintf("%s-seed%d-trace%d-%s.json", r.workload, r.seed, btoi(r.traced), time.Now().UTC().Format("20060102T150405"))
	if err := writeJSONFile(filepath.Join(r.out, "runs", name), rec); err != nil {
		fmt.Fprintln(r.log, "ftmcbench: run record:", err)
	}
}

// setupMax caps the set-ups of one run.
const setupMax = 101

// timeSetups runs setup at least min times and, within setupMax, until
// budget is spent on them, and records their median as setup_s. A set-up
// of a millisecond is thus timed about a hundred times and one of a
// second min times, so the median of the cheap ones settles too. teardown,
// if not nil, undoes the previous set-up before the next, untimed.
func (r *run) timeSetups(min int, budget time.Duration, setup func() error, teardown func()) error {
	var times []float64
	var spent time.Duration
	for len(times) < min || (spent < budget && len(times) < setupMax) {
		if teardown != nil && len(times) > 0 {
			teardown()
		}
		t0 := time.Now()
		if err := setup(); err != nil {
			return err
		}
		d := time.Since(t0)
		spent += d
		times = append(times, d.Seconds())
	}
	r.values["setup_s"] = median(times)
	r.extra["setups"] = len(times)
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
