package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os/exec"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/criticality"
	"repro/internal/expt"
	"repro/internal/gen"
	"repro/internal/obsv"
	"repro/internal/safety"
)

// figure is one timed campaign run.
type figure struct {
	res        expt.CampaignResult
	rep        expt.DistReport
	dur        time.Duration
	cpu        time.Duration // CPU of the processes under test
	workerCPU  time.Duration
	workerRSS  float64 // summed peak RSS of the figure's workers, MB
	leaseMs    float64 // mean lease round trip (distributed figures)
	err        error
	start, end time.Time
}

// setupFigure is the one-set-per-point figure a campaign set-up runs. Its
// seed is fixed: a set the baseline rejects goes on to FT-S and costs far
// more than one it accepts, so with 15 sets drawn from --seed the set-up
// time would follow the seed rather than the program.
var setupFigure = expt.PaperCampaign(1, 1)

// figureLoop runs fig back to back until d has elapsed (at least once).
func figureLoop(d time.Duration, fig func() figure) []figure {
	var out []figure
	start := time.Now()
	for len(out) == 0 || time.Since(start) < d {
		out = append(out, fig())
	}
	return out
}

// campaignValues fills the end-to-end metrics of a campaign workload from
// its timed figures; an op is a drawn set judged under every
// configuration. Throughput and CPU per set are medians over the
// figures, so a burst of load from outside the benchmark moves them less
// than it moves a run total. latency_ms is the median lease round trip
// on a distributed figure; in-process, where one figure is the only
// request in flight, it is the figure time, sets per figure ÷ ops_per_s.
func (r *run) campaignValues(cfg expt.CampaignConfig, figs []figure, wall time.Duration, rss float64, dist bool) {
	per := float64(len(cfg.Utils) * cfg.SetsPerPoint)
	nCfg := float64(len(cfg.Panels) * len(cfg.FailProbs))
	var lat []int64
	var rates, cpu, lease []float64
	for _, f := range figs {
		lat = append(lat, int64(f.dur))
		rates = append(rates, per/f.dur.Seconds())
		cpu = append(cpu, float64(f.cpu)/1e3/per)
		lease = append(lease, f.leaseMs)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	r.values["ops_per_s"] = median(rates)
	r.values["latency_ms"] = median(durMs(figs))
	if dist {
		r.values["latency_ms"] = median(lease)
		r.extra["lease_ms"] = lease
	}
	r.values["cpu_us_per_op"] = median(cpu)
	r.values["peak_rss_mb"] = rss
	r.extra["figures"] = len(figs)
	r.extra["verdicts_per_figure"] = per * nCfg
	r.extra["verdicts_per_s"] = median(rates) * nCfg
	r.extra["sets_per_s_run_total"] = per * float64(len(figs)) / wall.Seconds()
	r.extra["figure_ms_min_max"] = [2]float64{float64(lat[0]) / 1e6, float64(lat[len(lat)-1]) / 1e6}
	r.extra["figure_ms"] = durMs(figs)
	r.extra["figure_tail"] = tailReport(lat)
}

func durMs(figs []figure) []float64 {
	out := make([]float64, len(figs))
	for i, f := range figs {
		out[i] = float64(f.dur) / 1e6
	}
	return out
}

// runFig3 drives campaign_fig3: the full published figure through
// expt.Campaign in-process at FTMC_WORKERS=2.
func runFig3(r *run) error {
	r.pinSelf("ftmcbench (expt.Campaign in-process)", "2")
	cfg := expt.PaperCampaign(r.size.setsPerPoint, r.seed)
	// Set-up: validate the configuration and run setupFigure, which builds
	// the pooled drawers, scratches and caches; its time is the campaign's
	// fixed cost, not its per-set one.
	err := r.timeSetups(r.size.setupMin, r.size.setupBudget, func() error {
		if err := cfg.Validate(); err != nil {
			return err
		}
		_, err := expt.Campaign(setupFigure)
		return err
	}, nil)
	if err != nil {
		return err
	}

	fig := func() figure {
		c0, t0 := selfCPU(), time.Now()
		res, err := expt.Campaign(cfg)
		t1 := time.Now()
		return figure{res: res, err: err, dur: t1.Sub(t0), cpu: selfCPU() - c0, start: t0, end: t1}
	}
	window := time.Duration(r.seconds * float64(time.Second))
	var figs []figure
	if !r.traced {
		t0 := time.Now()
		figs = figureLoop(window, fig)
		wall := time.Since(t0)
		rss, err := procPeakRSS("self")
		if err != nil {
			return err
		}
		r.campaignValues(cfg, figs, wall, rss, false)
	} else {
		var err error
		if figs, err = r.traceCampaign(cfg, fig, window, false); err != nil {
			return err
		}
	}
	ref, err := json.Marshal(figs[0].res)
	if err != nil {
		return err
	}
	r.checkFigures(cfg, figs, ref)
	r.checkFig3(cfg, figs[0].res)
	return nil
}

// checkFigures counts every figure that failed or whose output is not
// byte-identical to ref as failed work.
func (r *run) checkFigures(cfg expt.CampaignConfig, figs []figure, ref []byte) {
	per := int64(len(cfg.Utils) * cfg.SetsPerPoint)
	for i, f := range figs {
		r.attempted += per
		if f.err != nil {
			r.failed += per
			fmt.Fprintf(r.log, "ftmcbench: figure %d: %v\n", i, f.err)
			continue
		}
		b, err := json.Marshal(f.res)
		if err != nil || !bytes.Equal(b, ref) {
			r.failed += per
			fmt.Fprintf(r.log, "ftmcbench: figure %d differs from the reference output\n", i)
		}
	}
}

// checkFig3 recomputes the figure outside the program: every set is
// redrawn with gen.Drawer.DrawKeyed on the campaign's keys and judged by
// the Appendix C criterion under every configuration, and both ratios of
// every curve must equal the timed figure's: the baseline (minimal
// re-execution profiles and the scaled-utilization EDF bound) and the
// adapted one (core.FTS wherever the baseline rejects). Any mismatch
// marks every figure of the run as failed, since all of them are
// byte-identical to the first.
func (r *run) checkFig3(cfg expt.CampaignConfig, full expt.CampaignResult) {
	t0 := time.Now()
	base, adapt := appendixC(cfg)
	if r.corrupt {
		base[0][0]++
		adapt[len(cfg.Utils)-1][0]--
	}
	n := float64(cfg.SetsPerPoint)
	bad := 0
	for pi := range cfg.Panels {
		for fi := range cfg.FailProbs {
			ci := pi*len(cfg.FailProbs) + fi
			c := full.Panels[pi].Curves[fi]
			for ui := range cfg.Utils {
				for _, m := range []struct {
					name      string
					got, want float64
				}{
					{"baseline", c.Baseline[ui], float64(base[ui][ci]) / n},
					{"adapted", c.Adapted[ui], float64(adapt[ui][ci]) / n},
				} {
					if m.got != m.want {
						bad++
						fmt.Fprintf(r.log, "ftmcbench: panel %s f=%g U=%.2f: %s ratio %g, recomputed %g\n",
							cfg.Panels[pi].Name, cfg.FailProbs[fi], cfg.Utils[ui], m.name, m.got, m.want)
					}
				}
			}
		}
	}
	if bad > 0 {
		r.failed = r.attempted
	}
	r.extra["check_s"] = time.Since(t0).Seconds()
}

// appendixC judges every set of the figure by the Appendix C criterion:
// base[ui][ci] and adapt[ui][ci] count the sets at point ui that the
// baseline, and FT-S where the baseline rejects, accept under
// configuration ci.
func appendixC(cfg expt.CampaignConfig) (base, adapt [][]int) {
	nCfg := len(cfg.Panels) * len(cfg.FailProbs)
	base = make([][]int, len(cfg.Utils))
	adapt = make([][]int, len(cfg.Utils))
	for ui := range cfg.Utils {
		base[ui], adapt[ui] = make([]int, nCfg), make([]int, nCfg)
	}
	var wg sync.WaitGroup
	points := make(chan int, len(cfg.Utils))
	for ui := range cfg.Utils {
		points <- ui
	}
	close(points)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drawers := map[criticality.Level]*gen.Drawer{}
			for ui := range points {
				u := cfg.Utils[ui]
				for i := 0; i < cfg.SetsPerPoint; i++ {
					key := gen.SimulationKey{Seed: cfg.Seed, Point: ui, Set: i}
					for pi, p := range cfg.Panels {
						d := drawers[p.LO]
						if d == nil {
							d, _ = gen.NewDrawer(gen.PaperParams(cfg.HI, p.LO, u, cfg.FailProbs[0]), 0)
							drawers[p.LO] = d
						}
						if d.Retarget(u) != nil {
							continue
						}
						s, err := d.DrawKeyed(key)
						if err != nil {
							continue // degenerate draw: every configuration rejects
						}
						for fi, f := range cfg.FailProbs {
							ci := pi*len(cfg.FailProbs) + fi
							if s.RestampFailProb(f) != nil {
								continue
							}
							scfg := safety.DefaultConfig()
							dual := s.Dual()
							nHI, errHI := scfg.MinReexecProfile(s.ByClass(criticality.HI), dual.Requirement(criticality.HI))
							nLO, errLO := scfg.MinReexecProfile(s.ByClass(criticality.LO), dual.Requirement(criticality.LO))
							ok := errHI == nil && errLO == nil &&
								s.ScaledUtilization(criticality.HI, nHI)+s.ScaledUtilization(criticality.LO, nLO) <= 1
							if ok {
								base[ui][ci]++
							} else {
								res, err := core.FTS(s, core.Options{Safety: scfg, Mode: p.Mode, DF: p.DF})
								ok = err == nil && res.OK
							}
							if ok {
								adapt[ui][ci]++
							}
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	return base, adapt
}

// workerConn is one ftmc-worker subprocess speaking the lease protocol on
// its stdin/stdout. Close ends its input, reaps it and records its CPU
// time and peak RSS.
type workerConn struct {
	io.Reader
	in   io.WriteCloser
	cmd  *exec.Cmd
	once sync.Once
	cpu  time.Duration
	rss  float64
}

func (w *workerConn) Write(p []byte) (int, error) { return w.in.Write(p) }

func (w *workerConn) Close() error {
	w.once.Do(func() {
		w.in.Close()
		_ = w.cmd.Wait()
		w.cpu, w.rss = exitedUsage(w.cmd.ProcessState)
	})
	return nil
}

// spawnWorkers starts n ftmc-worker processes at FTMC_WORKERS=1.
func (r *run) spawnWorkers(n int) ([]*workerConn, []io.ReadWriteCloser, error) {
	var ws []*workerConn
	var conns []io.ReadWriteCloser
	fail := func(err error) ([]*workerConn, []io.ReadWriteCloser, error) {
		for _, w := range ws {
			w.Close()
		}
		return nil, nil, fmt.Errorf("starting ftmc-worker: %w", err)
	}
	for i := 0; i < n; i++ {
		cmd := r.command("ftmc-worker", "ftmc-worker", "1")
		in, err := cmd.StdinPipe()
		if err != nil {
			return fail(err)
		}
		out, err := cmd.StdoutPipe()
		if err != nil {
			return fail(err)
		}
		if err := cmd.Start(); err != nil {
			return fail(err)
		}
		w := &workerConn{Reader: out, in: in, cmd: cmd}
		ws = append(ws, w)
		conns = append(conns, w)
	}
	return ws, conns, nil
}

// distFigure runs one distributed figure over two fresh workers, from
// spawn to reap. Its mean lease round trip comes from the coordinator's
// expt.dist.lease_ns histogram, in a registry of the figure's own unless
// a traced run has one installed already.
func (r *run) distFigure(cfg expt.CampaignConfig, opt expt.DistOptions) figure {
	reg := obsv.Default()
	if reg == nil {
		reg = obsv.NewRegistry()
		obsv.SetDefault(reg)
		defer obsv.SetDefault(nil)
	}
	h0 := reg.Snapshot().Histograms["expt.dist.lease_ns"]
	c0, t0 := selfCPU(), time.Now()
	ws, conns, err := r.spawnWorkers(2)
	if err != nil {
		return figure{err: err, start: t0, end: time.Now()}
	}
	res, rep, err := expt.DistCampaign(cfg, conns, opt)
	for _, w := range ws {
		w.Close() // DistCampaign closed them already; this only waits
	}
	t1 := time.Now()
	f := figure{res: res, rep: rep, err: err, dur: t1.Sub(t0), cpu: selfCPU() - c0, start: t0, end: t1}
	h1 := reg.Snapshot().Histograms["expt.dist.lease_ns"]
	f.leaseMs = ratio(float64(h1.SumNs-h0.SumNs), float64(h1.Count-h0.Count)) / 1e6
	for _, w := range ws {
		f.workerCPU += w.cpu
		f.workerRSS += w.rss
	}
	f.cpu += f.workerCPU
	if err == nil && rep.WorkerFailures > 0 {
		f.err = fmt.Errorf("%d worker failures, %d leases reassigned", rep.WorkerFailures, rep.Reassigned)
	}
	return f
}

// runDist drives campaign_dist: the same figure through expt.DistCampaign
// over two ftmc-worker subprocesses, default options but a small lease.
func runDist(r *run) error {
	r.pinSelf("ftmcbench (DistCampaign coordinator)", "1")
	cfg := expt.PaperCampaign(r.size.setsPerPoint, r.seed)
	opt := expt.DistOptions{LeaseSets: r.size.leaseSets}
	// Set-up: spawn the workers and run the handshake plus one lease per
	// point (setupFigure).
	err := r.timeSetups(r.size.setupMin, r.size.setupBudget, func() error {
		return r.distFigure(setupFigure, opt).err
	}, nil)
	if err != nil {
		return err
	}

	fig := func() figure { return r.distFigure(cfg, opt) }
	window := time.Duration(r.seconds * float64(time.Second))
	var figs []figure
	if !r.traced {
		t0 := time.Now()
		figs = figureLoop(window, fig)
		wall := time.Since(t0)
		rss, err := procPeakRSS("self")
		if err != nil {
			return err
		}
		var workers float64
		for _, f := range figs {
			workers = max(workers, f.workerRSS)
		}
		r.campaignValues(cfg, figs, wall, rss+workers, true)
	} else {
		var err error
		if figs, err = r.traceCampaign(cfg, fig, window, true); err != nil {
			return err
		}
	}
	// The reference is the single-process Campaign on the same config.
	ref, err := expt.Campaign(cfg)
	if err != nil {
		return err
	}
	b, err := json.Marshal(ref)
	if err != nil {
		return err
	}
	if r.corrupt {
		b = append(b, ' ')
	}
	r.checkFigures(cfg, figs, b)
	var leases, reassigned int
	for _, f := range figs {
		leases += f.rep.Leases
		reassigned += f.rep.Reassigned
	}
	r.extra["leases"] = leases
	r.extra["reassigned"] = reassigned
	if len(figs) > 0 {
		r.extra["worker_manifests"] = figs[0].rep.Manifest
	}
	return nil
}

// traceCampaign is the traced run of a campaign workload: an untraced
// phase and a traced phase (metrics registry on, one span per figure) of
// a third of the run each — their figure-time difference is
// trace.overhead — then a replay phase that times gen.Drawer.DrawKeyed on
// every key of the figure and the Algorithm 1 stages on the leading sets
// of each point.
func (r *run) traceCampaign(cfg expt.CampaignConfig, fig func() figure, window time.Duration, dist bool) ([]figure, error) {
	third := window / 3
	untraced := figureLoop(third, fig)

	reg := obsv.NewRegistry()
	obsv.SetDefault(reg)
	endB := r.tr.phaseBegin("campaign")
	cpu0 := selfCPU()
	name := "expt.campaign"
	if dist {
		name = "expt.dist_campaign"
	}
	var n int64
	traced := figureLoop(third, func() figure {
		f := fig()
		r.tr.add(name, -1, n, f.start, f.end)
		n++
		return f
	})
	coordCPU := selfCPU() - cpu0
	endB()
	obsv.SetDefault(nil)
	v := r.values
	snap := reg.Snapshot()
	layerCounters(v, snapDelta{after: snap})
	r.extra["obsv_counters"] = snapDelta{after: snap}.counters()

	sets := float64(len(traced) * len(cfg.Utils) * cfg.SetsPerPoint)
	cpu := coordCPU
	if dist {
		var bytes, leases, reassigned float64
		for _, f := range traced {
			cpu += f.workerCPU
			bytes += float64(f.rep.BytesIn + f.rep.BytesOut)
			leases += float64(f.rep.Leases)
			reassigned += float64(f.rep.Reassigned)
		}
		h := snap.Histograms["expt.dist.lease_ns"]
		v["expt.dist.lease_ms"] = ratio(float64(h.SumNs), float64(h.Count)) / 1e6
		v["expt.dist.lease_p99_ms"] = float64(h.P99Ns) / 1e6
		v["expt.dist.bytes_per_lease"] = ratio(bytes, leases)
		v["expt.dist.leases"] = leases / float64(len(traced))
		v["expt.dist.reassigned"] = reassigned
		v["expt.dist.coord_cpu_us_per_set"] = float64(coordCPU) / 1e3 / sets
	}

	endC := r.tr.phaseBegin("replay")
	drawUs := r.replayCampaign(cfg, third)
	endC()
	v["gen.draw_us"] = drawUs
	v["gen.draw_share"] = drawUs * 1e3 * sets / float64(cpu)

	ua, ub := median(durMs(untraced)), median(durMs(traced))
	v["trace.overhead"] = ratio(ub-ua, ua)
	v["trace.coverage"] = r.tr.coverage()
	zeroAbsent(v)
	r.extra["untraced_figure_ms"] = ua
	r.extra["traced_figure_ms"] = ub
	return append(untraced, traced...), nil
}

// replayCampaign times DrawKeyed on every key of the figure (one span per
// draw) and replays the Algorithm 1 stages on the leading replaySets sets
// of every point under every configuration, within budget. It returns
// the mean draw time in µs and fills the stage metrics.
func (r *run) replayCampaign(cfg expt.CampaignConfig, budget time.Duration) float64 {
	reg := obsv.NewRegistry()
	obsv.SetDefault(reg)
	defer obsv.SetDefault(nil)
	tr := r.tr
	deadline := time.Now().Add(budget)

	d, err := gen.NewDrawer(gen.PaperParams(cfg.HI, cfg.Panels[0].LO, cfg.Utils[0], cfg.FailProbs[0]), 0)
	if err != nil {
		return 0
	}
	var draw time.Duration
	var draws int
	root := tr.begin("replay.draws", -1, 0)
	for ui, u := range cfg.Utils {
		if d.Retarget(u) != nil {
			continue
		}
		for i := 0; i < cfg.SetsPerPoint; i++ {
			key := gen.SimulationKey{Seed: cfg.Seed, Point: ui, Set: i}
			draw += tr.timed("gen.draw", root, int64(ui*cfg.SetsPerPoint+i), func() { _, _ = d.DrawKeyed(key) })
			draws++
		}
	}
	tr.end(root)

	var acc stageAcc
	drawers := map[criticality.Level]*gen.Drawer{}
	for i := 0; i < min(r.size.replaySets, cfg.SetsPerPoint) && time.Now().Before(deadline); i++ {
		for ui, u := range cfg.Utils {
			id := int64(ui*cfg.SetsPerPoint + i)
			for _, p := range cfg.Panels {
				dl := drawers[p.LO]
				if dl == nil {
					dl, _ = gen.NewDrawer(gen.PaperParams(cfg.HI, p.LO, u, cfg.FailProbs[0]), 0)
					drawers[p.LO] = dl
				}
				if dl.Retarget(u) != nil {
					continue
				}
				s, err := dl.DrawKeyed(gen.SimulationKey{Seed: cfg.Seed, Point: ui, Set: i})
				if err != nil {
					continue
				}
				for _, f := range cfg.FailProbs {
					if s.RestampFailProb(f) != nil {
						continue
					}
					root := tr.begin("replay", -1, id)
					ok := r.replayStages(&acc, reg, root, id, s, core.Options{Safety: safety.DefaultConfig(), Mode: p.Mode, DF: p.DF})
					tr.end(root)
					r.attempted++
					if !ok {
						r.failed++
						fmt.Fprintf(r.log, "ftmcbench: replay of set %d (panel %s, f=%g) differs from core.FTS\n", id, p.Name, f)
					}
				}
			}
		}
	}
	acc.stageMetrics(r.values)
	r.values["core.line8_probes_per_verdict"] = ratio(float64(acc.line8Probes), float64(acc.ftsCalls))
	return ratio(float64(draw)/1e3, float64(draws))
}
