package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/criticality"
	"repro/internal/gen"
	"repro/internal/task"
)

// verdictOpt is one analysis option a designer compares schedulers under.
type verdictOpt struct {
	Mode string  `json:"mode,omitempty"`
	Test string  `json:"test,omitempty"`
	DF   float64 `json:"df,omitempty"`
}

// verdictOpts are the options each multiset of the verdict workloads
// arrives under: kill with EDF-VD, kill with AMC-rtb, degrade with df = 6.
var verdictOpts = []verdictOpt{
	{Mode: "kill", Test: "edf-vd"},
	{Mode: "kill", Test: "amc-rtb"},
	{Mode: "degrade", DF: gen.FMSDegradeFactor},
}

// vreq is one generated verdict request.
type vreq struct {
	body []byte // the POST /v1/verdict body
	set  []byte // the "set" member of body, for the decode timing
	opt  int    // index into verdictOpts
	ms   int    // multiset index (the pool entry, on verdict_repeat)
	fms  bool   // an FMS Table 4 instance, not an Appendix C set
}

// class names the request's kind of multiset and analysis mode, the
// classes the run record breaks the mix down by.
func (q vreq) class() string {
	kind := "appc"
	if q.fms {
		kind = "fms"
	}
	return kind + "_" + verdictOpts[q.opt].Mode
}

// marshalReq encodes one request: the set's JSON (shared by every option
// the multiset arrives under) wrapped in the server's request shape.
func marshalReq(set []byte, opt int, ms int, fms bool) (vreq, error) {
	o, err := json.Marshal(verdictOpts[opt])
	if err != nil {
		return vreq{}, err
	}
	body := make([]byte, 0, len(set)+len(o)+8)
	body = append(body, `{"set":`...)
	body = append(body, set...)
	if len(o) > 2 {
		body = append(body, ',')
		body = append(body, o[1:len(o)-1]...)
	}
	body = append(body, '}')
	return vreq{body: body, set: set, opt: opt, ms: ms, fms: fms}, nil
}

// fmsShare is the share of FMS Table 4 instances among the multisets.
// Neither the paper nor this repository says how often a designer asks
// about an FMS-like set rather than a random Appendix C one; one in five
// is this benchmark's own unverified choice. The run record reports the
// resulting shares of requests and of analysis time by class.
const fmsShare = 5

// multisetSource draws distinct task multisets from a seed: Appendix C
// sets (HI = B, LO ∈ {C, D}, U ∈ [0.3, 1], f ∈ {1e-3, 1e-5}) and, one in
// fmsShare, FMS Table 4 instances. Distinctness is by canonical hash, so
// no two draws share a verdict-cache key.
type multisetSource struct {
	seed    int64
	rng     *rand.Rand
	drawers map[[2]float64]*gen.Drawer
	seen    map[uint64]bool
	next    int
}

func newMultisetSource(seed int64) *multisetSource {
	return &multisetSource{
		seed:    seed,
		rng:     rand.New(rand.NewSource(seed)),
		drawers: map[[2]float64]*gen.Drawer{},
		seen:    map[uint64]bool{},
	}
}

// draw returns the next distinct multiset (a fresh copy) and whether it
// is an FMS instance.
func (m *multisetSource) draw() (*task.Set, bool, error) {
	for tries := 0; tries < 1000; tries++ {
		var s *task.Set
		fms := m.rng.Intn(fmsShare) == 0
		if fms {
			s = gen.FMS(m.rng)
		} else {
			lo := criticality.LevelC
			if m.rng.Intn(2) == 0 {
				lo = criticality.LevelD
			}
			f := 1e-3
			if m.rng.Intn(2) == 0 {
				f = 1e-5
			}
			u := 0.3 + 0.7*m.rng.Float64()
			k := [2]float64{float64(lo), f}
			d := m.drawers[k]
			if d == nil {
				var err error
				d, err = gen.NewDrawer(gen.PaperParams(criticality.LevelB, lo, u, f), 0)
				if err != nil {
					return nil, false, err
				}
				m.drawers[k] = d
			}
			if err := d.Retarget(u); err != nil {
				return nil, false, err
			}
			m.next++
			ds, err := d.DrawKeyed(gen.SimulationKey{Seed: m.seed, Set: m.next})
			if err != nil {
				continue
			}
			if s, err = task.NewSet(ds.Tasks()); err != nil {
				continue
			}
		}
		if len(s.ByClass(criticality.HI)) == 0 || len(s.ByClass(criticality.LO)) == 0 {
			continue
		}
		h := s.CanonicalHash()
		if m.seen[h] {
			continue
		}
		m.seen[h] = true
		return s, fms, nil
	}
	return nil, false, fmt.Errorf("could not draw a distinct multiset")
}

// missStream is the verdict_miss request stream: every multiset arrives
// under two or three of verdictOpts, spread through the stream in blocks
// of 32 multisets (one pass over the block per option), so each request
// is a verdict-cache miss while the adaptation contexts of one multiset
// are reused across its options. The stream is a pure function of the
// seed; extend appends its next block.
type missStream struct {
	src  *multisetSource
	reqs []vreq
}

func newMissStream(seed int64, n int) (*missStream, error) {
	m := &missStream{src: newMultisetSource(seed)}
	for len(m.reqs) < n {
		if err := m.extend(); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (m *missStream) extend() error {
	const block = 32
	ms := len(m.src.seen)
	sets := make([][]byte, block)
	opts := make([][]int, block)
	fms := make([]bool, block)
	for j := range sets {
		s, isFMS, err := m.src.draw()
		fms[j] = isFMS
		if err != nil {
			return err
		}
		if sets[j], err = json.Marshal(s); err != nil {
			return err
		}
		perm := m.src.rng.Perm(len(verdictOpts))
		opts[j] = perm[:2+m.src.rng.Intn(2)]
	}
	for k := 0; k < len(verdictOpts); k++ {
		for j := range sets {
			if k >= len(opts[j]) {
				continue
			}
			q, err := marshalReq(sets[j], opts[j][k], ms+j, fms[j])
			if err != nil {
				return err
			}
			m.reqs = append(m.reqs, q)
		}
	}
	return nil
}

// repeatCorpus builds the verdict_repeat pool (one request per multiset,
// under one option each) and a ring of
// resubmissions: random task permutations of pool entries with every task
// renamed.
func repeatCorpus(seed int64, poolN, ringN int) (pool, ring []vreq, err error) {
	src := newMultisetSource(seed)
	sets := make([]*task.Set, poolN)
	for i := range sets {
		s, fms, err := src.draw()
		if err != nil {
			return nil, nil, err
		}
		sets[i] = s
		set, err := json.Marshal(s)
		if err != nil {
			return nil, nil, err
		}
		q, err := marshalReq(set, src.rng.Intn(len(verdictOpts)), i, fms)
		if err != nil {
			return nil, nil, err
		}
		pool = append(pool, q)
	}
	for k := 0; k < ringN; k++ {
		i := src.rng.Intn(poolN)
		ts := sets[i].Tasks()
		perm := src.rng.Perm(len(ts))
		renamed := make([]task.Task, len(ts))
		for j, p := range perm {
			renamed[j] = ts[p]
			renamed[j].Name = fmt.Sprintf("r%d_%d", k, j)
		}
		s, err := task.NewSet(renamed)
		if err != nil {
			return nil, nil, err
		}
		set, err := json.Marshal(s)
		if err != nil {
			return nil, nil, err
		}
		q, err := marshalReq(set, pool[i].opt, i, pool[i].fms)
		if err != nil {
			return nil, nil, err
		}
		ring = append(ring, q)
	}
	return pool, ring, nil
}
