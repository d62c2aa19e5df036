package main

import (
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/criticality"
	"repro/internal/mcsched"
	"repro/internal/obsv"
	"repro/internal/safety"
	"repro/internal/task"
)

// stageAcc accumulates the Algorithm 1 stage replays of a traced run.
type stageAcc struct {
	n                          int
	line2, line4, line8, final time.Duration
	searches, probes           uint64
	eq5, test                  time.Duration
	eq5N, testN                int
	ftsCalls, line8Probes      int
}

// replayStages times Algorithm 1 on s stage by stage — line 2 (both
// MinReexecProfile searches), line 4 (MinAdaptProfile on a fresh
// AdaptationCache), line 8 (MaxSchedProfile), the final PFH bounds — plus
// one eq. (5) evaluation on a fresh cache and one test S call on
// Γ(n_HI, n_LO, n_HI). The replayed result must equal core.FTS on the
// same set and options; it reports whether it did. reg is the default
// registry, read for the line-4 probe count.
func (r *run) replayStages(acc *stageAcc, reg *obsv.Registry, parent int32, req int64, s *task.Set, opt core.Options) bool {
	tr := r.tr
	var want core.Result
	var ftsErr error
	calls0, probes8 := reg.Counter("core.fts.calls").Value(), reg.Counter("core.line8.probes").Value()
	tr.timed("core.fts", parent, req, func() { want, ftsErr = core.FTS(s, opt) })
	acc.ftsCalls += int(reg.Counter("core.fts.calls").Value() - calls0)
	acc.line8Probes += int(reg.Counter("core.line8.probes").Value() - probes8)
	if ftsErr != nil {
		return false
	}

	cfg := opt.Safety
	dual := s.Dual()
	hi, lo := s.ByClass(criticality.HI), s.ByClass(criticality.LO)
	got := core.Result{}
	var errHI, errLO error
	acc.n++
	acc.line2 += tr.timed("core.line2", parent, req, func() {
		got.NHI, errHI = cfg.MinReexecProfile(hi, dual.Requirement(criticality.HI))
		if errHI == nil {
			got.NLO, errLO = cfg.MinReexecProfile(lo, dual.Requirement(criticality.LO))
		}
	})
	if errHI != nil {
		got.NHI = 0
	}
	if errLO != nil {
		got.NLO = 0
	}

	if errHI == nil && errLO == nil && opt.Mode == safety.Kill {
		c := safety.NewAdaptationCache(cfg, hi, lo)
		acc.eq5 += tr.timed("safety.eq5", parent, req, func() { _, _ = c.KillingPFHLOUniform(got.NLO, got.NHI) })
		acc.eq5N++
	}
	if errHI == nil && errLO == nil {
		test := opt.Test
		if test == nil {
			test = defaultTest(opt)
		}
		if conv, err := core.Convert(s, core.Profiles{NHI: got.NHI, NLO: got.NLO, NPrime: got.NHI}); err == nil {
			const reps = 16
			d := tr.timed("mcsched.test", parent, req, func() {
				for i := 0; i < reps; i++ {
					test.Schedulable(conv)
				}
			})
			acc.test += d / reps
			acc.testN++
		}
	}

	switch {
	case errHI != nil || errLO != nil:
		got.Reason = core.FailReexecProfile
	default:
		cache := safety.NewAdaptationCache(cfg, hi, lo)
		var n1 int
		var err error
		p0 := reg.Counter("safety.minadapt.probes").Value()
		acc.line4 += tr.timed("core.line4", parent, req, func() {
			n1, err = cache.MinAdaptProfile(opt.Mode, got.NLO, opt.DF, dual.Requirement(criticality.LO))
		})
		acc.searches++
		acc.probes += reg.Counter("safety.minadapt.probes").Value() - p0
		if err != nil {
			got.N1HI = safety.MaxProfile + 1
			got.Reason = core.FailSafetyAdapt
			break
		}
		got.N1HI = n1
		if n1 > got.NHI {
			got.Reason = core.FailSafetyAdapt
			break
		}
		test := opt.Test
		if test == nil {
			test = defaultTest(opt)
		}
		var n2 int
		acc.line8 += tr.timed("core.line8", parent, req, func() {
			n2, err = core.MaxSchedProfile(s, nil, test, core.Profiles{NHI: got.NHI, NLO: got.NLO, NPrime: got.NHI})
		})
		if err != nil {
			return false
		}
		got.N2HI = n2
		if n2 == 0 || n1 > n2 {
			got.Reason = core.FailUnschedulable
			break
		}
		got.OK = true
		acc.final += tr.timed("core.final_pfh", parent, req, func() {
			got.PFHHI = cfg.PlainPFHUniform(hi, got.NHI)
			if opt.Mode == safety.Kill {
				got.PFHLO, err = cache.KillingPFHLOUniform(got.NLO, n2)
			} else {
				got.PFHLO, err = cache.DegradationPFHLOUniform(got.NLO, n2, opt.DF)
			}
		})
		if err != nil {
			return false
		}
	}
	return got.OK == want.OK && got.Reason == want.Reason &&
		got.NHI == want.NHI && got.NLO == want.NLO && got.N1HI == want.N1HI && got.N2HI == want.N2HI &&
		math.Float64bits(got.PFHHI) == math.Float64bits(want.PFHHI) &&
		math.Float64bits(got.PFHLO) == math.Float64bits(want.PFHLO)
}

// defaultTest is core.FTS's schedulability test for the mode.
func defaultTest(opt core.Options) mcsched.Test {
	if opt.Mode == safety.Degrade {
		return mcsched.EDFVDDegrade{DF: opt.DF}
	}
	return mcsched.EDFVD{}
}

// stageMetrics fills the core/safety/mcsched per-layer metrics from the
// accumulated replays.
func (acc *stageAcc) stageMetrics(v map[string]float64) {
	us := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / 1e3 / float64(n)
	}
	v["core.line2_us"] = us(acc.line2, acc.n)
	v["core.line4_us"] = us(acc.line4, acc.n)
	v["core.line8_us"] = us(acc.line8, acc.n)
	v["core.final_pfh_us"] = us(acc.final, acc.n)
	if sum := acc.line2 + acc.line4 + acc.line8 + acc.final; sum > 0 {
		v["core.line4_share"] = float64(acc.line4) / float64(sum)
	} else {
		v["core.line4_share"] = 0
	}
	v["safety.eq5_us"] = us(acc.eq5, acc.eq5N)
	v["safety.line4_probes_per_search"] = ratio(float64(acc.probes), float64(acc.searches))
	v["mcsched.test_ns"] = us(acc.test, acc.testN) * 1e3
}

// ratio is a/b, or 0 when b is 0 (the layer was not exercised).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
