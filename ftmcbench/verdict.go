package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/mcsched"
	"repro/internal/obsv"
	"repro/internal/safety"
	"repro/internal/serve"
	"repro/internal/task"
)

// clients is the closed loop's width: two client goroutines, each on its
// own keep-alive connection, each waiting for its verdict before sending
// the next request.
const clients = 2

// server is a running ftmc-serve process.
type server struct {
	cmd    *exec.Cmd
	url    string
	client *http.Client
	exited chan struct{}
}

// ftmc-serve's cache bounds. verdict_miss never repeats a request, so at
// the defaults (64Ki verdicts, 128 adaptation contexts per shard) the
// caches, and with them the peak RSS, would grow with the number of
// verdicts a run completes, i.e. with its speed. At these sizes they fill
// within seconds and the server is measured at the steady state of a
// long-running one, evicting as it inserts. Both still hold far more than
// the reuse the workloads have: the verdict_repeat pool, and the options
// of one multiset, which arrive within 32 multisets of each other.
const (
	serverCache         = 4096
	serverShardContexts = 32
)

// startServer launches ftmc-serve on a free loopback port, waits for its
// listening line and a healthy /healthz.
func (r *run) startServer() (*server, error) {
	cmd := r.command("ftmc-serve", "ftmc-serve", "2", "-addr", "127.0.0.1:0",
		"-cache", strconv.Itoa(serverCache), "-shard-contexts", strconv.Itoa(serverShardContexts))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting ftmc-serve: %w", err)
	}
	s := &server{cmd: cmd, exited: make(chan struct{})}
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		first := true
		for sc.Scan() {
			if first {
				lines <- sc.Text()
				first = false
			}
		}
		if first {
			close(lines)
		}
	}()
	go func() {
		_ = cmd.Wait()
		close(s.exited)
	}()
	var line string
	select {
	case l, ok := <-lines:
		if !ok {
			s.stop()
			return nil, fmt.Errorf("ftmc-serve exited before listening")
		}
		line = l
	case <-time.After(20 * time.Second):
		s.stop()
		return nil, fmt.Errorf("ftmc-serve did not start listening")
	}
	addr := line[strings.LastIndexByte(line, ' ')+1:]
	s.url = "http://" + addr
	s.client = &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
	}
	resp, err := s.client.Get(s.url + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
	}
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("ftmc-serve /healthz: %w", err)
	}
	return s, nil
}

// stop drains the server with SIGTERM (SIGKILL after 15 s) and waits for
// it to exit.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
}

// metrics reads the server's obsv registry from /metrics.
func (s *server) metrics() (obsv.Snapshot, error) {
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return obsv.Snapshot{}, err
	}
	defer resp.Body.Close()
	var doc struct {
		FTMC obsv.Snapshot `json:"ftmc"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return obsv.Snapshot{}, fmt.Errorf("decoding /metrics: %w", err)
	}
	return doc.FTMC, nil
}

// post sends one verdict request and decodes the answer.
func (s *server) post(body []byte) (serve.Verdict, int, error) {
	resp, err := s.client.Post(s.url+"/v1/verdict", "application/json", bytes.NewReader(body))
	if err != nil {
		return serve.Verdict{}, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return serve.Verdict{}, resp.StatusCode, err
	}
	var v serve.Verdict
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(b, &v); err != nil {
			return v, resp.StatusCode, err
		}
	}
	return v, resp.StatusCode, nil
}

// answer is one closed-loop request's outcome.
type answer struct {
	idx        int64
	start, end time.Time
	ok         bool // 200 with a decodable verdict
	v          serve.Verdict
}

// loopResult is one closed-loop phase.
type loopResult struct {
	answers []answer // in completion order per client, clients concatenated
	start   time.Time
	wall    time.Duration
	sorted  []int64 // latencies (ns) of the ok answers, ascending
}

func (l loopResult) ok() int { return len(l.sorted) }

// meanRTT is the mean round trip (ns) of the ok answers.
func (l loopResult) meanRTT() float64 {
	var sum float64
	for _, ns := range l.sorted {
		sum += float64(ns)
	}
	return ratio(sum, float64(len(l.sorted)))
}

// closedLoop drives the server with `clients` goroutines for d, taking
// request indexes from next; body maps an index to its request. Spans go
// to tr when non-nil.
func (s *server) closedLoop(d time.Duration, next *atomic.Int64, body func(int64) []byte, tr *tracer) loopResult {
	per := make([][]answer, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				a := answer{idx: i, start: time.Now()}
				v, status, err := s.post(body(i))
				a.end = time.Now()
				a.ok = err == nil && status == http.StatusOK
				a.v = v
				if tr != nil {
					tr.add("http.verdict", -1, i, a.start, a.end)
				}
				per[c] = append(per[c], a)
			}
		}(c)
	}
	wg.Wait()
	res := loopResult{start: start}
	last := start
	for _, as := range per {
		for _, a := range as {
			res.answers = append(res.answers, a)
			if a.ok {
				res.sorted = append(res.sorted, int64(a.end.Sub(a.start)))
			}
			if a.end.After(last) {
				last = a.end
			}
		}
	}
	res.wall = last.Sub(start)
	sort.Slice(res.sorted, func(i, j int) bool { return res.sorted[i] < res.sorted[j] })
	return res
}

// perSecond counts the ok answers completed in each whole second of the
// loop and sums their round trips (a trailing partial second is dropped).
func (l loopResult) perSecond() (counts []int, rtt []time.Duration) {
	counts = make([]int, int(l.wall/time.Second))
	rtt = make([]time.Duration, len(counts))
	for _, a := range l.answers {
		if b := int(a.end.Sub(l.start) / time.Second); a.ok && b < len(counts) {
			counts[b]++
			rtt[b] += a.end.Sub(a.start)
		}
	}
	return counts, rtt
}

// verdictSetup is what a verdict workload's set-up produces.
type verdictSetup struct {
	srv  *server
	pool []vreq // verdict_repeat: the cache-resident pool
	ring []vreq // verdict_repeat: the resubmissions, cycled
	next atomic.Int64

	mu     sync.Mutex
	stream *missStream // verdict_miss: the request stream
}

// req returns request i of the workload's stream. The miss stream is
// generated ahead, before the timed phase; should a run outpace it, the
// client extends it in place with the stream's next block.
func (vs *verdictSetup) req(i int64) vreq {
	if vs.stream == nil {
		return vs.ring[i%int64(len(vs.ring))]
	}
	vs.mu.Lock()
	defer vs.mu.Unlock()
	for int64(len(vs.stream.reqs)) <= i {
		if err := vs.stream.extend(); err != nil {
			return vreq{} // an empty body: the server answers 400, counted as failed
		}
	}
	return vs.stream.reqs[i]
}

func (vs *verdictSetup) body(i int64) []byte { return vs.req(i).body }

// setupVerdict starts the server and builds the corpus; on verdict_repeat
// it also primes the verdict cache with the pool. The miss corpus built
// here is its fixed first missSetup requests; runVerdict extends it to
// the run's length outside the timed set-up, so setup_s does not grow
// with --seconds.
func (r *run) setupVerdict(repeat bool) (*verdictSetup, error) {
	srv, err := r.startServer()
	if err != nil {
		return nil, err
	}
	vs := &verdictSetup{srv: srv}
	if repeat {
		vs.pool, vs.ring, err = repeatCorpus(r.seed, r.size.repeatPool, r.size.repeatRing)
		if err == nil {
			for _, q := range vs.pool {
				if _, status, perr := srv.post(q.body); perr != nil || status != http.StatusOK {
					err = fmt.Errorf("priming the verdict cache: status %d: %v", status, perr)
					break
				}
			}
		}
	} else {
		vs.stream, err = newMissStream(r.seed, r.size.missSetup)
	}
	if err != nil {
		srv.stop()
		return nil, err
	}
	return vs, nil
}

// runVerdict drives verdict_miss (repeat false) or verdict_repeat.
func runVerdict(r *run, repeat bool) error {
	r.pinSelf("ftmcbench (client, in-process replay)", "2")
	var vs *verdictSetup
	n, budget := r.size.setupMin, r.size.setupBudget
	if r.traced {
		n, budget = 1, 0
	}
	err := r.timeSetups(n, budget, func() error {
		var err error
		vs, err = r.setupVerdict(repeat)
		return err
	}, func() { vs.srv.stop() })
	if err != nil {
		return err
	}
	defer vs.srv.stop()
	if !repeat {
		for len(vs.stream.reqs) < r.size.missRate*int(r.seconds) {
			if err := vs.stream.extend(); err != nil {
				return err
			}
		}
	}

	// Expected answers for the pool are computed outside the timed phase.
	var poolWant []serve.Verdict
	if repeat {
		poolWant, _ = expectedVerdicts(vs.pool)
	}
	window := time.Duration(r.seconds * float64(time.Second))

	var loops []loopResult
	if !r.traced {
		lr, err := r.timeVerdicts(vs, window)
		if err != nil {
			return err
		}
		loops = append(loops, lr)
	} else {
		lrs, err := r.traceVerdict(vs, repeat, window)
		if err != nil {
			return err
		}
		loops = lrs
	}

	// Check every answer.
	var answers []answer
	for _, lr := range loops {
		answers = append(answers, lr.answers...)
	}
	sent := make([]vreq, len(answers))
	for k, a := range answers {
		sent[k] = vs.req(a.idx)
	}
	var want []serve.Verdict
	if repeat {
		for _, q := range sent {
			want = append(want, poolWant[q.ms])
		}
		r.mixReport(sent, nil)
	} else {
		var took []time.Duration
		want, took = expectedVerdicts(sent)
		r.mixReport(sent, took)
	}
	cached := 0
	for k, a := range answers {
		r.attempted++
		w := want[k]
		if r.corrupt && k == 0 {
			w.PFHLO = math.Nextafter(w.PFHLO, math.Inf(1))
			w.OK = !w.OK
		}
		if !a.ok || !sameVerdict(a.v, w) {
			r.failed++
			if r.failed <= 3 {
				fmt.Fprintf(r.log, "ftmcbench: request %d: got %+v want %+v (ok=%v)\n", a.idx, a.v, w, a.ok)
			}
		}
		if a.v.Cached {
			cached++
		}
	}
	r.extra["cached_answers"] = cached
	return nil
}

// timeVerdicts is the timed closed loop. Throughput, mean round trip and
// CPU per verdict are medians over the run's whole seconds, so a burst of
// load from outside the benchmark moves them less than it moves a run
// total. The round trip is a mean, not the p50: on verdict_miss about
// 45% of requests (degrade, FMS) answer in tens of microseconds and the
// Appendix C kill requests in milliseconds, so the p50 falls on the gap
// between the two and jumps with small shifts of the mix.
func (r *run) timeVerdicts(vs *verdictSetup, window time.Duration) (loopResult, error) {
	pid := vs.srv.cmd.Process.Pid
	cpu := []time.Duration{}
	read := func() {
		if c, err := procCPU(pid); err == nil {
			cpu = append(cpu, c)
		}
	}
	stop := make(chan struct{})
	sampled := make(chan struct{})
	read()
	go func() {
		defer close(sampled)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				read()
			case <-stop:
				return
			}
		}
	}()
	lr := vs.srv.closedLoop(window, &vs.next, vs.body, nil)
	close(stop)
	<-sampled
	read() // stands in for a last tick that lost the race with stop
	rss, err := procPeakRSS(strconv.Itoa(pid))
	if err != nil {
		return lr, err
	}
	counts, rtt := lr.perSecond()
	var rates, lat, cpuPer []float64
	for b, n := range counts {
		if n == 0 {
			continue
		}
		rates = append(rates, float64(n))
		lat = append(lat, float64(rtt[b])/1e6/float64(n))
		if b+1 < len(cpu) {
			cpuPer = append(cpuPer, float64(cpu[b+1]-cpu[b])/1e3/float64(n))
		}
	}
	if len(rates) == 0 || len(cpuPer) == 0 {
		return lr, fmt.Errorf("no verdict completed in a whole second of the run")
	}
	p50, _ := quantileNs(lr.sorted, 0.5)
	r.values["ops_per_s"] = median(rates)
	r.values["latency_ms"] = median(lat)
	r.values["cpu_us_per_op"] = median(cpuPer)
	r.values["peak_rss_mb"] = rss
	r.extra["verdicts_per_s_run_total"] = float64(lr.ok()) / lr.wall.Seconds()
	r.extra["verdict_p50_ms"] = float64(p50) / 1e6
	r.extra["verdict_tail"] = tailReport(lr.sorted)
	return lr, nil
}

// sameVerdict compares every field of a verdict but its cache provenance,
// the PFH bounds bit for bit.
func sameVerdict(a, b serve.Verdict) bool {
	return a.OK == b.OK && a.Reason == b.Reason &&
		a.NHI == b.NHI && a.NLO == b.NLO && a.N1HI == b.N1HI && a.N2HI == b.N2HI &&
		a.Profiles == b.Profiles && a.Test == b.Test && a.Hash == b.Hash &&
		math.Float64bits(a.PFHHI) == math.Float64bits(b.PFHHI) &&
		math.Float64bits(a.PFHLO) == math.Float64bits(b.PFHLO)
}

// decodeReq decodes a request's task set the way the server does and
// returns the canonically ordered set with its core options.
func decodeReq(q vreq) (*task.Set, core.Options, uint64, error) {
	var s task.Set
	if err := s.UnmarshalJSON(q.set); err != nil {
		return nil, core.Options{}, 0, err
	}
	h := task.HashTasksCanonical(s.Tasks())
	ts := append([]task.Task(nil), s.Tasks()...)
	task.SortCanonical(ts)
	cs, err := task.NewSet(ts)
	if err != nil {
		return nil, core.Options{}, 0, err
	}
	o := verdictOpts[q.opt]
	opt := core.Options{Safety: safety.DefaultConfig(), Mode: safety.Kill}
	if o.Mode == "degrade" {
		opt.Mode, opt.DF = safety.Degrade, o.DF
	}
	switch o.Test {
	case "edf-vd":
		opt.Test = mcsched.EDFVD{}
	case "amc-rtb":
		opt.Test = mcsched.AMCrtb{}
	}
	return cs, opt, h, nil
}

// mixReport records the share of the requests sent in each class of
// multiset and mode and, given the time of each request's direct
// core.FTS in the check, the share of analysis time and its mean per
// class. The check runs with cold caches where the server reuses
// adaptation contexts across a multiset's options, so these approximate
// the server's split rather than measure it.
func (r *run) mixReport(sent []vreq, took []time.Duration) {
	n := map[string]int{}
	t := map[string]time.Duration{}
	var total time.Duration
	for k, q := range sent {
		n[q.class()]++
		if took != nil {
			t[q.class()] += took[k]
			total += took[k]
		}
	}
	reqShare := map[string]float64{}
	timeShare := map[string]float64{}
	meanUs := map[string]float64{}
	for c, k := range n {
		reqShare[c] = float64(k) / float64(len(sent))
		if took != nil {
			timeShare[c] = ratio(float64(t[c]), float64(total))
			meanUs[c] = float64(t[c]) / 1e3 / float64(k)
		}
	}
	r.extra["mix.request_share"] = reqShare
	if took != nil {
		r.extra["mix.check_fts_time_share"] = timeShare
		r.extra["mix.check_fts_us_mean"] = meanUs
	}
}

// expectedVerdicts computes the uncached verdict of each request with a
// direct core.FTS on the canonical set (two goroutines, no shared state),
// and how long each core.FTS took.
func expectedVerdicts(reqs []vreq) ([]serve.Verdict, []time.Duration) {
	out := make([]serve.Verdict, len(reqs))
	took := make([]time.Duration, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				s, opt, h, err := decodeReq(reqs[i])
				if err != nil {
					out[i] = serve.Verdict{Reason: "expected: " + err.Error()}
					continue
				}
				t0 := time.Now()
				res, err := core.FTS(s, opt)
				took[i] = time.Since(t0)
				if err != nil {
					out[i] = serve.Verdict{Reason: "expected: " + err.Error()}
					continue
				}
				out[i] = serve.Verdict{
					OK: res.OK, Reason: string(res.Reason),
					NHI: res.NHI, NLO: res.NLO, N1HI: res.N1HI, N2HI: res.N2HI,
					Profiles: serve.ProfilesJSON{NHI: res.Profiles.NHI, NLO: res.Profiles.NLO, NPrime: res.Profiles.NPrime},
					PFHHI:    res.PFHHI, PFHLO: res.PFHLO, Test: res.TestName,
					Hash: strconv.FormatUint(h, 16),
				}
			}
		}()
	}
	wg.Wait()
	return out, took
}
