package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obsv"
	"repro/internal/safety"
	"repro/internal/serve"
	"repro/internal/task"
)

// snapDelta is the difference of two registry snapshots: the counters and
// histogram sums and counts an interval added.
type snapDelta struct{ before, after obsv.Snapshot }

func (d snapDelta) c(name string) float64 {
	return float64(d.after.Counters[name] - d.before.Counters[name])
}

// mean is the histogram's mean observation over the interval.
func (d snapDelta) mean(name string) float64 {
	a, b := d.after.Histograms[name], d.before.Histograms[name]
	return ratio(float64(a.SumNs-b.SumNs), float64(a.Count-b.Count))
}

// counters returns every counter's delta over the interval.
func (d snapDelta) counters() map[string]uint64 {
	out := make(map[string]uint64, len(d.after.Counters))
	for name, n := range d.after.Counters {
		out[name] = n - d.before.Counters[name]
	}
	return out
}

// layerCounters fills the per-layer metrics read from obsv counters.
func layerCounters(v map[string]float64, d snapDelta) {
	v["serve.hit_ratio"] = ratio(d.c("serve.cache.hits"), d.c("serve.requests"))
	v["serve.batch_width_mean"] = d.mean("serve.batch.width")
	v["core.line8_probes_per_verdict"] = ratio(d.c("core.line8.probes"), d.c("core.fts.calls"))
	v["safety.shard_hit_ratio"] = ratio(d.c("safety.shards.hits"), d.c("safety.shards.hits")+d.c("safety.shards.misses"))
	v["safety.cache_hit_ratio"] = ratio(d.c("safety.cache.hits"), d.c("safety.cache.hits")+d.c("safety.cache.misses"))
	v["safety.batch_width_mean"] = d.mean("safety.batch.width")
	v["expt.point_ms"] = d.mean("expt.campaign.point_ns") / 1e6
	v["expt.sched_memo_hit_ratio"] = ratio(d.c("expt.campaign.sched_memo_hits"),
		d.c("expt.campaign.sched_memo_hits")+d.c("expt.campaign.sched_searches"))
	v["expt.batched_probes_per_set"] = ratio(d.c("expt.campaign.batched_probes"), d.c("expt.campaign.sets"))
	v["expt.pool_steals"] = ratio(d.c("expt.pool.steals"), d.c("expt.pool.dispatches"))
	v["expt.pool_chunk_us"] = d.mean("expt.pool.chunk_ns") / 1e3
}

// zeroAbsent sets every listed metric the workload did not measure to 0:
// the layer is not exercised by it.
func zeroAbsent(v map[string]float64) {
	for _, d := range perLayer {
		if _, ok := v[d.name]; !ok {
			v[d.name] = 0
		}
	}
}

// traceVerdict is the traced run of a verdict workload: after a warm-up
// second, an untraced closed-loop phase and a traced one of a third of the
// run each (their mean round-trip difference is trace.overhead), with the server's
// counters read before and after the traced phase, then an in-process
// replay of the traced phase's requests, layer by layer, for at most the
// last third.
func (r *run) traceVerdict(vs *verdictSetup, repeat bool, window time.Duration) ([]loopResult, error) {
	third := window / 3
	// The warm-up takes the server's cache fill and heap growth, which
	// would otherwise land on the untraced phase alone.
	warm := vs.srv.closedLoop(time.Second, &vs.next, vs.body, nil)
	a := vs.srv.closedLoop(third, &vs.next, vs.body, nil)
	before, err := vs.srv.metrics()
	if err != nil {
		return nil, err
	}
	endB := r.tr.phaseBegin("http")
	b := vs.srv.closedLoop(third, &vs.next, vs.body, r.tr)
	endB()
	after, err := vs.srv.metrics()
	if err != nil {
		return nil, err
	}
	v := r.values
	d := snapDelta{before, after}
	layerCounters(v, d)
	r.extra["obsv_counters"] = d.counters()

	endC := r.tr.phaseBegin("replay")
	r.replayVerdicts(vs, repeat, b, third)
	endC()

	ma, mb := a.meanRTT(), b.meanRTT()
	v["trace.overhead"] = ratio(mb-ma, ma)
	v["trace.coverage"] = r.tr.coverage()
	zeroAbsent(v)
	r.extra["untraced_mean_ms"] = ma / 1e6
	r.extra["traced_mean_ms"] = mb / 1e6
	return []loopResult{warm, a, b}, nil
}

// replayVerdicts times, in-process, the calls a verdict makes into each
// layer: task decode and canonical hash, the serve pipeline on a miss and
// on a hit, core.FTS on the same canonical set (the miss's analysis
// share), and the Algorithm 1 stages. Misses go through the pipeline two
// at a time, as the closed loop's two clients send them, so the queue and
// dispatch they meet are the server's. The pipeline's answer must equal
// the server's and the stage replay must equal core.FTS; a mismatch
// counts as a failure.
func (r *run) replayVerdicts(vs *verdictSetup, repeat bool, b loopResult, budget time.Duration) {
	reg := obsv.NewRegistry()
	obsv.SetDefault(reg)
	defer obsv.SetDefault(nil)
	pipe := serve.NewPipeline(serve.Options{CacheEntries: serverCache, ShardContexts: serverShardContexts})
	defer pipe.Close()
	shards := safety.NewCacheShardsCap(serverShardContexts)
	tr := r.tr
	deadline := time.Now().Add(budget)

	var acc stageAcc
	var decode, hash, hit time.Duration
	var nDecode, nHit int
	var httpDiff, missWait []float64

	check := func(ok bool, what string, id int64) {
		r.attempted++
		if !ok {
			r.failed++
			fmt.Fprintf(r.log, "ftmcbench: replay of request %d: %s\n", id, what)
		}
	}
	// item is one replayed request.
	type item struct {
		id     int64
		q      vreq
		req    serve.Request
		server *answer // the server's answer (nil for the pool priming)
		inproc time.Duration
	}
	// open decodes and hashes the request under its first root span.
	open := func(id int64, q vreq, server *answer) *item {
		it := &item{id: id, q: q, server: server}
		root := tr.begin("replay", -1, id)
		var s task.Set
		decode += tr.timed("task.decode", root, id, func() { _ = s.UnmarshalJSON(q.set) })
		nDecode++
		const reps = 16
		hash += tr.timed("task.hash", root, id, func() {
			for i := 0; i < reps; i++ {
				task.HashTasksCanonical(s.Tasks())
			}
		}) / reps
		tr.end(root)
		o := verdictOpts[q.opt]
		it.req = serve.Request{Tasks: s.Tasks(), Safety: safety.DefaultConfig(), Mode: safety.Kill, Test: o.Test}
		if o.Mode == "degrade" {
			it.req.Mode, it.req.DF = safety.Degrade, o.DF
		}
		return it
	}
	// pipelineMisses sends the items through the pipeline concurrently,
	// each under its own root span.
	pipelineMisses := func(items []*item) {
		got := make([]serve.Verdict, len(items))
		var wg sync.WaitGroup
		for j, it := range items {
			wg.Add(1)
			go func(j int, it *item) {
				defer wg.Done()
				it.inproc = tr.timed("serve.pipeline.miss", -1, it.id, func() { got[j], _ = pipe.Verdict(it.req) })
			}(j, it)
		}
		wg.Wait()
		for j, it := range items {
			if it.server != nil {
				check(!got[j].Cached && sameVerdict(got[j], it.server.v), "in-process pipeline differs from the server", it.id)
			}
		}
	}
	// analysis times core.FTS on the canonical set with shared adaptation
	// contexts, as the pipeline runs it, and replays the stages.
	analysis := func(it *item, root int32) {
		cs, opt, _, err := decodeReq(it.q)
		if err != nil {
			check(false, err.Error(), it.id)
			return
		}
		shared := opt
		shared.Shared = shards
		dFTS := tr.timed("core.fts.shared", root, it.id, func() { _, _ = core.FTS(cs, shared) })
		missWait = append(missWait, float64(it.inproc-dFTS)/1e3)
		check(r.replayStages(&acc, reg, root, it.id, cs, opt), "stage replay differs from core.FTS", it.id)
	}
	// hitOnce answers the item from the in-process cache.
	hitOnce := func(it *item, root int32) {
		var hv serve.Verdict
		d := tr.timed("serve.pipeline.hit", root, it.id, func() { hv, _ = pipe.Verdict(it.req) })
		check(hv.Cached && sameVerdict(hv, it.server.v), "in-process cache hit differs from the server", it.id)
		hit += d
		nHit++
		if repeat {
			it.inproc = d
		}
		httpDiff = append(httpDiff, float64(it.server.end.Sub(it.server.start)-it.inproc)/1e3)
	}

	if repeat {
		// Prime the in-process cache with the pool, as set-up primed the
		// server's; these are the workload's only misses.
		for i := 0; i < len(vs.pool); i += clients {
			var items []*item
			for j := i; j < min(i+clients, len(vs.pool)); j++ {
				items = append(items, open(-int64(j)-1, vs.pool[j], nil))
			}
			pipelineMisses(items)
			for _, it := range items {
				root := tr.begin("replay", -1, it.id)
				analysis(it, root)
				tr.end(root)
			}
		}
	}
	var batch []*item
	flush := func() {
		if !repeat {
			pipelineMisses(batch)
		}
		for _, it := range batch {
			root := tr.begin("replay", -1, it.id)
			if !repeat {
				analysis(it, root)
			}
			hitOnce(it, root)
			tr.end(root)
		}
		batch = batch[:0]
	}
	for k := range b.answers {
		a := &b.answers[k]
		if k >= r.size.replayMax || time.Now().After(deadline) {
			break
		}
		if !a.ok {
			continue
		}
		batch = append(batch, open(a.idx, vs.req(a.idx), a))
		if len(batch) == clients {
			flush()
		}
	}
	flush()

	v := r.values
	v["task.decode_us"] = ratio(float64(decode)/1e3, float64(nDecode))
	v["task.hash_ns"] = ratio(float64(hash), float64(nDecode))
	v["serve.hit_us"] = ratio(float64(hit)/1e3, float64(nHit))
	v["serve.http_us"] = median(httpDiff)
	v["serve.miss_wait_us"] = median(missWait)
	acc.stageMetrics(v)
	r.extra["replayed_requests"] = nHit
}
