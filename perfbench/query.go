package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"scaldift/internal/ddg"
	"scaldift/internal/isa"
	"scaldift/internal/ontrac"
	"scaldift/internal/prog"
	"scaldift/internal/query"
	"scaldift/internal/slicing"
	"scaldift/internal/store"
)

// The slice-query workload is the read side: set-up records a psum
// store and serves it with query.NewServer on loopback; the timed
// phase is an open-loop seeded stream of backward, forward and
// provenance requests at fixed rates.
const (
	// queryStoreWords sizes the served store: ~36k instructions in
	// ~67 chunks of 4KB, 3.5 to 20 times each thread's registry cache
	// of cacheChunks, so fresh requests load chunks from disk. Every
	// closure is bounded by the store (the largest is ~12k nodes),
	// which keeps a request within tens of milliseconds and lets the
	// nominal phase collect hundreds of samples.
	queryStoreWords = 3000
	cacheChunks     = 2
	// queryConns is the client's connection limit: the host's 2 CPUs.
	queryConns = 2
	// nominalRung is the ladder rung (25 requests/s) query_p50_ms and
	// query_p99_ms are measured at: about an eighth of the capacity the
	// ladder measures on a 2-CPU host (sustained_qps 183 to 200 across
	// seeds), so the nominal phase reads service time with little
	// queueing. The rate is fixed rather than derived from each run's
	// capacity so that a slower read path shows as higher latency at
	// the same load.
	nominalRung = 16
	// nominalShare is the share of --seconds the nominal phase runs
	// for; the ladder search gets the rest.
	nominalShare = 0.5
	// latencyLimitMS is the p99 limit a ladder rung must meet.
	latencyLimitMS = 250.0
	// checkPerKind served answers of each kind are checked against
	// direct in-process slices after the timed phase.
	checkPerKind = 6
	// stageRequests is the traced run's fixed request count per stage.
	stageRequests = 40
)

// ladderQPS is the fixed rate ladder sustained_qps is read from:
// 6.25 to 400 requests/s, rungs a factor 2^(1/8) (~9%) apart, finer
// than the metric's bound, so a capacity change of the bound moves it
// by two rungs or more. The search probes at most ladderProbes rungs
// (see timedSliceQuery).
var ladderQPS = func() []float64 {
	out := make([]float64, 0, 49)
	for k := range 49 {
		out = append(out, 6.25*math.Pow(2, float64(k)/8))
	}
	return out
}()

const ladderProbes = 6

// cyclePattern is the request stream's repeating traffic mix, one
// letter per request: B backward (data and control dependences),
// P provenance (the backward data slice), F forward, R a repeat
// of one of the last repeatWindow new requests, as a dashboard refresh
// would send. No query log exists, so the proportions are assumptions
// (README.md gives each one's reason): backward slices, the debugging
// question, are the majority; provenance a fifth; repeats a fifth, a
// minority that keeps the result cache in use; forward slices scan
// the whole store, so at one in twenty they are the heavy tail that
// query_p99_ms reads. A fixed pattern, rather than kinds drawn at
// random, makes every seed offer the same load; seeds vary the
// criteria, the repeats' targets and the recorded store.
const cyclePattern = "BPBRBBPBRBFBPBRBBPBR"

const (
	repeatWindow = 64
	// positionStrata: each kind's criteria visit this many equal
	// slices of the trace's instances (every thread's window laid end
	// to end) in seeded order, one uniform draw per slice, so every
	// seed samples positions, and so closure sizes, evenly.
	positionStrata = 16
	// recordedProbe bounds the walk from a drawn instance to the next
	// one that stored a record: criteria name recorded statements, as
	// a user's would, so their closures are real slices.
	recordedProbe = 64
)

type reqKind int

const (
	kindBackward reqKind = iota
	kindProvenance
	kindForward
)

func (k reqKind) String() string {
	return [...]string{"backward", "provenance", "forward"}[k]
}

// request is one generated query: a kind and one criterion.
type request struct {
	kind   reqKind
	tid    int
	n      uint64
	repeat bool
}

// requestGen draws the seeded request stream over a store.
type requestGen struct {
	rng     *rand.Rand
	src     ddg.Source // the store, to find recorded instances
	windows []query.ThreadWindow
	total   uint64
	slot    int
	strata  [3][]int  // each kind's remaining strata of its current pass
	recent  []request // the last repeatWindow new requests
}

func newRequestGen(seed uint64, src ddg.Source, windows []query.ThreadWindow) *requestGen {
	g := &requestGen{rng: rand.New(rand.NewPCG(seed, 0x5eed)), src: src, windows: windows}
	for _, w := range windows {
		g.total += w.Hi - w.Lo + 1
	}
	return g
}

// next draws the stream's next request.
func (g *requestGen) next() request {
	c := cyclePattern[g.slot%len(cyclePattern)]
	g.slot++
	switch {
	case c == 'R' && len(g.recent) > 0:
		r := g.recent[g.rng.IntN(len(g.recent))]
		r.repeat = true
		return r
	case c == 'P':
		return g.fresh(kindProvenance)
	case c == 'F':
		return g.fresh(kindForward)
	}
	return g.fresh(kindBackward)
}

// fresh draws a new request of the given kind from its next stratum.
func (g *requestGen) fresh(kind reqKind) request {
	if len(g.strata[kind]) == 0 {
		g.strata[kind] = g.rng.Perm(positionStrata)
	}
	st := uint64(g.strata[kind][0])
	g.strata[kind] = g.strata[kind][1:]
	lo, hi := g.total*st/positionStrata, g.total*(st+1)/positionStrata
	x := lo + g.rng.Uint64N(hi-lo)
	r := request{kind: kind}
	for _, w := range g.windows {
		if size := w.Hi - w.Lo + 1; x >= size {
			x -= size
			continue
		}
		r.tid, r.n = w.TID, w.Lo+x
		for n := r.n; n <= min(w.Hi, r.n+recordedProbe); n++ {
			if _, ok := g.src.NodePC(ddg.MakeID(r.tid, n)); ok {
				r.n = n
				break
			}
		}
		break
	}
	if len(g.recent) == repeatWindow {
		g.recent = g.recent[1:]
	}
	g.recent = append(g.recent, r)
	return r
}

// take draws n requests of the stream; fresh skips the repeats.
func (g *requestGen) take(n int, fresh bool) []request {
	out := make([]request, 0, n)
	for len(out) < n {
		if r := g.next(); !fresh || !r.repeat {
			out = append(out, r)
		}
	}
	return out
}

// answer is the part of a served or direct slice the check compares.
type answer struct {
	pcs          []int32
	nodes, edges int
	inputPCs     []int32
	wallMS       float64 // server traversal wall (served answers)
	cached       bool
	cutShort     string // why the answer is incomplete, if it is
}

func (a answer) equal(b answer) bool {
	return slices.Equal(a.pcs, b.pcs) && a.nodes == b.nodes && a.edges == b.edges && slices.Equal(a.inputPCs, b.inputPCs)
}

// service is one recorded store served over loopback HTTP.
type service struct {
	root, dir, id string
	w             *prog.Workload
	steps         uint64
	traceBytes    uint64
	windows       []query.ThreadWindow

	reg   *query.Registry
	hs    *http.Server
	serve chan error
	tr    *http.Transport
	cl    *query.Client
}

// recordService records the served store under root.
func recordService(root string, seed uint64) (*service, error) {
	s := &service{root: root, id: "psum", w: psumWorkload(queryStoreWords, seed)}
	s.dir = filepath.Join(root, s.id)
	job, wr := recordToStore(s.w, s.dir, noTrace, 0)
	if job.err == nil {
		job.err = checkReopen(s.dir, wr)
	}
	if job.err != nil {
		return nil, fmt.Errorf("recording the served store: %w", job.err)
	}
	s.steps, s.traceBytes = job.steps, job.stats.BytesWritten
	return s, nil
}

// start opens a fresh registry over the store and serves it on a
// loopback port; wrap, when non-nil, decorates the server's handler.
func (s *service) start(wrap func(http.Handler) http.Handler) error {
	s.reg = query.NewRegistry([]string{s.root}, query.RegistryOptions{CacheChunks: cacheChunks})
	if _, err := s.reg.Refresh(); err != nil {
		s.reg.Close()
		return err
	}
	if err := s.reg.AttachProgram(s.id, s.w.Prog, ontrac.StaticOptions()); err != nil {
		s.reg.Close()
		return err
	}
	t, _ := s.reg.Get(s.id)
	s.windows = t.Info().Threads
	h := query.NewServer(s.reg, query.ServerOptions{}).Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.reg.Close()
		return err
	}
	s.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.serve = make(chan error, 1)
	go func() { s.serve <- s.hs.Serve(ln) }()
	s.tr = &http.Transport{MaxConnsPerHost: queryConns, MaxIdleConnsPerHost: queryConns}
	var rt http.RoundTripper = s.tr
	if wrap != nil {
		rt = spanTransport{s.tr}
	}
	s.cl = query.NewClient("http://"+ln.Addr().String(), &http.Client{Transport: rt})
	if _, err := s.cl.Traces(context.Background()); err != nil {
		return errors.Join(err, s.stop())
	}
	return nil
}

// stop shuts the server down, waits for it, and closes the registry.
// Stopping a stopped service does nothing.
func (s *service) stop() error {
	if s.hs == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.serve; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.tr.CloseIdleConnections()
	s.hs = nil
	return errors.Join(err, s.reg.Close())
}

// do sends one request and returns the served answer.
func (s *service) do(ctx context.Context, r request) (answer, error) {
	crit := []query.Criterion{{TID: r.tid, N: r.n}}
	var resp *query.SliceResponse
	var a answer
	switch r.kind {
	case kindProvenance:
		p, err := s.cl.Provenance(ctx, &query.ProvenanceRequest{Trace: s.id, Criteria: crit})
		if err != nil {
			return a, err
		}
		resp, a.inputPCs = &p.Slice, p.InputPCs
	default:
		dir := query.DirBackward
		if r.kind == kindForward {
			dir = query.DirForward
		}
		sl, err := s.cl.Slice(ctx, &query.SliceRequest{Trace: s.id, Direction: dir, Criteria: crit,
			FollowControl: r.kind == kindBackward})
		if err != nil {
			return a, err
		}
		resp = sl
	}
	a.pcs, a.nodes, a.edges = resp.PCs, resp.Nodes, resp.Edges
	a.wallMS, a.cached = resp.WallMillis, resp.Cached
	switch {
	case resp.Interrupted:
		a.cutShort = "interrupted"
	case resp.BudgetExhausted:
		a.cutShort = "budget_exhausted"
	}
	return a, nil
}

// sample is one request's fate in a phase.
type sample struct {
	req         request
	sched, done time.Time
	ans         answer
	err         error
}

func (s sample) latencyMS() float64 { return float64(s.done.Sub(s.sched)) / 1e6 }

func (s sample) ok() bool { return s.err == nil && s.ans.cutShort == "" }

// openLoop sends reqs at a fixed rate regardless of completions, over
// at most queryConns connections, and returns when all have finished.
// A request waits in line for a connection once both are busy; its
// latency counts from when it was due.
func (s *service) openLoop(reqs []request, rate float64) (out []sample, lateMS float64) {
	out = make([]sample, len(reqs))
	due := make(chan int, len(reqs)) // never blocks the schedule
	var wg sync.WaitGroup
	for c := 0; c < queryConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range due {
				out[i].ans, out[i].err = s.do(context.Background(), reqs[i])
				out[i].done = time.Now()
			}
		}()
	}
	start := time.Now()
	for i, r := range reqs {
		at := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		time.Sleep(time.Until(at))
		if late := float64(time.Since(at)) / 1e6; late > lateMS {
			lateMS = late
		}
		out[i].req, out[i].sched = r, at
		due <- i
	}
	close(due)
	wg.Wait()
	return out, lateMS
}

// rung is one ladder rate's verdict.
type rung struct {
	QPS       float64 `json:"qps"`
	Samples   int     `json:"samples"`
	P99MS     float64 `json:"p99_ms"`
	DrainMS   float64 `json:"drain_ms"`
	Sustained bool    `json:"sustained"`
}

// judge decides whether a phase at rate qps met the latency limit
// without a growing backlog: p99 within latencyLimitMS, and every
// request answered within latencyLimitMS of the last one falling due.
// A backlog that grows through the phase fails the second test even
// when most requests were quick.
func judge(qps float64, ss []sample) rung {
	lat := make([]float64, 0, len(ss))
	last, drained := ss[len(ss)-1].sched, ss[len(ss)-1].sched
	for _, s := range ss {
		lat = append(lat, s.latencyMS())
		if s.done.After(drained) {
			drained = s.done
		}
	}
	r := rung{QPS: qps, Samples: len(ss), P99MS: quantile(lat, 0.99), DrainMS: float64(drained.Sub(last)) / 1e6}
	r.Sustained = r.P99MS <= latencyLimitMS && r.DrainMS <= latencyLimitMS
	return r
}

// countOps charges every request of a phase to the result.
func countOps(res *result, ss []sample) {
	for i, s := range ss {
		if s.err != nil {
			res.op(false, "%s request %d: %v", s.req.kind, i, s.err)
		} else {
			res.op(s.ans.cutShort == "", "%s request %d: %s", s.req.kind, i, s.ans.cutShort)
		}
	}
}

func runSliceQuery(cfg runConfig, res *result) error {
	var svc *service
	setup, err := medianOf(setupReps, func() (float64, error) {
		if svc != nil {
			if err := svc.stop(); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		root := filepath.Join(cfg.workDir, fmt.Sprintf("setup-%d", time.Now().UnixNano()))
		s, err := recordService(root, subSeed(cfg.seed, 0, 0))
		if err != nil {
			return 0, err
		}
		if err := s.start(nil); err != nil {
			return 0, err
		}
		svc = s
		return time.Since(t0).Seconds(), nil
	})
	if err != nil {
		if svc != nil {
			svc.stop()
		}
		return err
	}
	if cfg.trace {
		return errors.Join(traceSliceQuery(cfg, res, svc), svc.stop())
	}
	res.set("setup_s", setup)
	err = timedSliceQuery(cfg, res, svc)
	return errors.Join(err, svc.stop())
}

// timedSliceQuery runs the nominal phase, searches the ladder from the
// nominal rung, then checks a sample of served answers.
func timedSliceQuery(cfg runConfig, res *result, svc *service) error {
	r, err := store.Open(svc.dir, store.ReaderOptions{CacheChunks: cacheChunks})
	if err != nil {
		return err
	}
	defer r.Close()
	gen := newRequestGen(subSeed(cfg.seed, 1, 0), r, svc.windows)
	heap := startHeapPeak()
	nominalQPS := ladderQPS[nominalRung]
	nominalSec := cfg.seconds * nominalShare
	nominal, late := svc.openLoop(gen.take(int(nominalQPS*nominalSec), false), nominalQPS)
	countOps(res, nominal)

	// The nominal phase is the nominal rung's verdict. A binary search
	// of the ladder, assuming a rung holds whenever a faster one does,
	// finds the highest rung that holds: lo is the highest rung known
	// to hold, hi the lowest known to fail. It probes at most
	// ladderProbes rungs, each for an equal share of the remaining time.
	verdicts := []rung{judge(nominalQPS, nominal)}
	lo, hi := -1, len(ladderQPS)
	if verdicts[0].Sustained {
		lo = nominalRung
	} else {
		hi = nominalRung
	}
	rungSec := (cfg.seconds - nominalSec) / ladderProbes
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		qps := ladderQPS[mid]
		ss, _ := svc.openLoop(gen.take(int(qps*rungSec+0.5), false), qps)
		countOps(res, ss)
		v := judge(qps, ss)
		verdicts = append(verdicts, v)
		if v.Sustained {
			lo = mid
		} else {
			hi = mid
		}
	}
	res.set("peak_heap_mb", heap.mb())
	sustained := 0.0
	if lo >= 0 {
		sustained = ladderQPS[lo]
	}

	// A forward slice scans every recorded event, so a fresh forward
	// answer's server wall is the read path's whole-store scan rate.
	var lats, scans []float64
	for _, s := range nominal {
		lats = append(lats, s.latencyMS())
		if s.ok() && !s.ans.cached && s.req.kind == kindForward {
			scans = append(scans, float64(svc.steps)/(s.ans.wallMS/1e3))
		}
	}
	res.set("query_p50_ms", median(lats))
	res.set("query_p99_ms", quantile(lats, 0.99))
	res.set("sustained_qps", sustained)
	res.set("events_per_s", median(scans))
	res.set("trace_bytes_per_event", float64(svc.traceBytes)/float64(svc.steps))
	res.context["nominal_samples"] = len(nominal)
	res.context["generator_late_ms_max"] = late
	res.context["ladder"] = verdicts
	res.context["latency_limit_ms"] = latencyLimitMS
	res.context["store_events"] = svc.steps
	res.context["per_kind_p50_ms"] = perKindP50(nominal)

	return checkServed(res, svc, nominal, subSeed(cfg.seed, 3, 0))
}

func perKindP50(ss []sample) map[string]float64 {
	by := make(map[string][]float64)
	for _, s := range ss {
		name := s.req.kind.String()
		if s.ans.cached {
			name = "cached"
		}
		by[name] = append(by[name], s.latencyMS())
	}
	out := make(map[string]float64)
	for k, v := range by {
		out[k] = median(v)
	}
	return out
}

// direct computes the reference answer in process: the same slicers
// the server runs, over an independently opened reader.
type direct struct {
	prog *isa.Program
	src  ddg.Source
}

func openDirect(svc *service) (*direct, *store.Reader, error) {
	r, err := store.Open(svc.dir, store.ReaderOptions{CacheChunks: cacheChunks})
	if err != nil {
		return nil, nil, err
	}
	src := ontrac.NewStaticReconstructor(svc.w.Prog, ontrac.StaticOptions()).ReaderOver(r)
	return &direct{prog: svc.w.Prog, src: src}, r, nil
}

// serverWorkers is the query.Server default traversal shard switch,
// which the direct reference uses too.
const serverWorkers = 8

func (d *direct) slice(r request) (answer, *slicing.Slice) {
	id := ddg.MakeID(r.tid, r.n)
	pc := int32(-1)
	if got, ok := d.src.NodePC(id); ok {
		pc = got
	}
	var sl *slicing.Slice
	if r.kind == kindForward {
		sl = slicing.ParallelForward(d.src, d.prog, []ddg.ID{id}, slicing.Options{}, serverWorkers)
	} else {
		opts := slicing.Options{FollowControl: r.kind == kindBackward}
		sl = slicing.ParallelBackward(d.src, d.prog, []slicing.Criterion{{ID: id, PC: pc}}, opts, serverWorkers)
	}
	a := answer{nodes: sl.Nodes, edges: sl.Edges}
	for pc := range sl.PCs {
		a.pcs = append(a.pcs, pc)
	}
	slices.Sort(a.pcs)
	if r.kind == kindProvenance {
		a.inputPCs = []int32{}
		for _, pc := range a.pcs {
			if d.prog.Instrs[pc].Op == isa.IN {
				a.inputPCs = append(a.inputPCs, pc)
			}
		}
	}
	return a, sl
}

// checkServed compares a seeded sample of served answers, up to
// checkPerKind of each kind, with direct slices of the same criteria.
// A mismatch fails the sampled request once more.
func checkServed(res *result, svc *service, ss []sample, seed uint64) error {
	d, r, err := openDirect(svc)
	if err != nil {
		return err
	}
	defer r.Close()
	rng := rand.New(rand.NewPCG(seed, 0xc4ec))
	var taken [3]int
	checked := 0
	for _, i := range rng.Perm(len(ss)) {
		s := ss[i]
		if !s.ok() || taken[s.req.kind] == checkPerKind {
			continue
		}
		taken[s.req.kind]++
		checked++
		want, _ := d.slice(s.req)
		res.op(s.ans.equal(want), "%s request %d (tid %d n %d): served %d nodes %d edges %d pcs, direct %d nodes %d edges %d pcs",
			s.req.kind, i, s.req.tid, s.req.n, s.ans.nodes, s.ans.edges, len(s.ans.pcs), want.nodes, want.edges, len(want.pcs))
	}
	res.context["answers_checked"] = checked
	return nil
}

// countingSource decorates the source the slicers traverse, counting
// and timing every DepsOf and DepsOfHinted call.
type countingSource struct {
	slicing.HintedSource
	calls atomic.Int64
	busy  atomic.Int64 // nanoseconds inside the calls, summed over workers
}

func (c *countingSource) DepsOf(id ddg.ID, yield func(ddg.Dep)) {
	t0 := time.Now()
	c.HintedSource.DepsOf(id, yield)
	c.busy.Add(int64(time.Since(t0)))
	c.calls.Add(1)
}

func (c *countingSource) DepsOfHinted(id ddg.ID, pc int32, yield func(ddg.Dep)) {
	t0 := time.Now()
	c.HintedSource.DepsOfHinted(id, pc, yield)
	c.busy.Add(int64(time.Since(t0)))
	c.calls.Add(1)
}

// traceSliceQuery is the traced run: tracing overhead on a closed-loop
// replay, then store.Open, the slicers over a counting source, and the
// HTTP handler measured one at a time, each for a quarter of the run.
func traceSliceQuery(cfg runConfig, res *result, svc *service) error {
	r, err := store.Open(svc.dir, store.ReaderOptions{CacheChunks: cacheChunks})
	if err != nil {
		return err
	}
	defer r.Close()
	gen := newRequestGen(subSeed(cfg.seed, 2, 0), r, svc.windows)
	fixed := gen.take(stageRequests, true)
	stream := gen.take(3*stageRequests, false)
	if err := svc.stop(); err != nil {
		return err
	}
	budget := cfg.seconds / 4

	// Overhead: the same fresh requests through a fresh server, once
	// untraced and once with spans around every client and handler
	// call. Fresh registries make both passes start cold.
	err = repeatStage(res, budget, func() (map[string]float64, error) {
		plain, err := replay(svc, fixed, nil, noTrace)
		if err != nil {
			return nil, err
		}
		traced, err := replay(svc, fixed, res, cfg.tr)
		if err != nil {
			return nil, err
		}
		return map[string]float64{"trace.overhead_ratio": traced / plain}, nil
	})
	if err != nil {
		return err
	}

	// Opening takes tens of microseconds, so a pass is the median of
	// a batch of opens and the stage runs only its fewest passes.
	err = repeatStage(res, 0, func() (map[string]float64, error) {
		walls := make([]float64, 0, 20)
		for range 20 {
			sp := cfg.tr.begin("store.Open", 0, 0)
			t0 := time.Now()
			r, err := store.Open(svc.dir, store.ReaderOptions{CacheChunks: cacheChunks})
			if err != nil {
				return nil, err
			}
			walls = append(walls, time.Since(t0).Seconds())
			cfg.tr.end(sp)
			if err := r.Close(); err != nil {
				return nil, err
			}
		}
		return map[string]float64{"store.open_s": median(walls)}, nil
	})
	if err != nil {
		return err
	}
	if err := repeatStage(res, budget, func() (map[string]float64, error) { return slicersPass(cfg, svc, fixed) }); err != nil {
		return err
	}
	return repeatStage(res, budget, func() (map[string]float64, error) { return handlerPass(cfg, res, svc, stream) })
}

// replay sends reqs one at a time through a fresh server over the
// store and returns the total wall; with a result it also checks each
// answer is complete.
func replay(svc *service, reqs []request, res *result, tr *tracer) (float64, error) {
	var wrap func(http.Handler) http.Handler
	if tr.on {
		wrap = func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				parent, req := spanFrom(r)
				sp := tr.begin("query.Server.Handler", parent, req)
				h.ServeHTTP(w, r)
				tr.end(sp)
			})
		}
	}
	if err := svc.start(wrap); err != nil {
		return 0, err
	}
	t0 := time.Now()
	for i, r := range reqs {
		sp := tr.begin("query.Client."+r.kind.String(), 0, int64(i+1))
		a, err := svc.do(withSpan(context.Background(), int64(i+1), sp), r)
		tr.end(sp)
		if res != nil {
			res.op(err == nil && a.cutShort == "", "replay %s request %d: %v %s", r.kind, i, err, a.cutShort)
		}
	}
	wall := time.Since(t0).Seconds()
	return wall, svc.stop()
}

// slicersPass runs the requests' slices directly, over a freshly opened
// reader behind a counting decorator, each with its own unlimited
// chunk-load budget so its loads are counted.
func slicersPass(cfg runConfig, svc *service, reqs []request) (map[string]float64, error) {
	r, err := store.Open(svc.dir, store.ReaderOptions{CacheChunks: cacheChunks})
	if err != nil {
		return nil, err
	}
	defer r.Close()
	recon := ontrac.NewStaticReconstructor(svc.w.Prog, ontrac.StaticOptions())
	var calls, busy, loads, nodes int64
	var wall float64
	var imbalance []float64
	mark := markAllocs()
	for i, q := range reqs {
		b := store.NewBudget(0)
		cs := &countingSource{HintedSource: recon.ReaderOver(r.Budgeted(b))}
		d := &direct{prog: svc.w.Prog, src: cs}
		sp := cfg.tr.begin("slicing."+q.kind.String(), 0, int64(i+1))
		t0 := time.Now()
		_, sl := d.slice(q)
		wall += time.Since(t0).Seconds()
		cfg.tr.end(sp)
		calls += cs.calls.Load()
		busy += cs.busy.Load()
		loads += b.ChunkLoads()
		nodes += int64(sl.Nodes)
		var sum, top float64
		for _, d := range sl.ShardBusy {
			sum += d.Seconds()
			top = max(top, d.Seconds())
		}
		if len(sl.ShardBusy) > 1 && sum > 0 {
			imbalance = append(imbalance, top/(sum/float64(len(sl.ShardBusy))))
		}
	}
	bytes, _ := mark.since()
	return map[string]float64{
		"store.depsof_calls_per_node": float64(calls) / float64(nodes),
		"store.depsof_busy_s":         float64(busy) / 1e9,
		"store.chunk_loads_per_query": float64(loads) / float64(len(reqs)),
		"store.alloc_bytes_per_node":  bytes / float64(nodes),
		"slicing.nodes_per_s":         float64(nodes) / wall,
		"slicing.shard_imbalance":     median(imbalance),
	}, nil
}

// handlerPass sends a stream with repeats, one request at a time,
// through a fresh server whose handler is wrapped to count response
// bytes, and reads the server's own counters at the end.
func handlerPass(cfg runConfig, res *result, svc *service, reqs []request) (map[string]float64, error) {
	var mu sync.Mutex
	var bytes []float64
	wrap := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			cw := &countingWriter{ResponseWriter: w}
			parent, req := spanFrom(r)
			sp := cfg.tr.begin("query.Server.Handler", parent, req)
			h.ServeHTTP(cw, r)
			cfg.tr.end(sp)
			if r.URL.Path != "/v1/stats" {
				mu.Lock()
				bytes = append(bytes, float64(cw.n))
				mu.Unlock()
			}
		})
	}
	if err := svc.start(wrap); err != nil {
		return nil, err
	}
	var serverMS, overheadMS []float64
	for i, q := range reqs {
		sp := cfg.tr.begin("query.Client."+q.kind.String(), 0, int64(i+1))
		t0 := time.Now()
		a, err := svc.do(withSpan(context.Background(), int64(i+1), sp), q)
		lat := float64(time.Since(t0)) / 1e6
		cfg.tr.end(sp)
		res.op(err == nil && a.cutShort == "", "handler %s request %d: %v %s", q.kind, i, err, a.cutShort)
		if err == nil && !a.cached {
			serverMS = append(serverMS, a.wallMS)
			overheadMS = append(overheadMS, lat-a.wallMS)
		}
	}
	st, err := svc.cl.Stats(context.Background())
	if err := errors.Join(err, svc.stop()); err != nil {
		return nil, err
	}
	mu.Lock()
	defer mu.Unlock()
	return map[string]float64{
		"query.server_wall_ms_p50":     median(serverMS),
		"query.overhead_ms_p50":        median(overheadMS),
		"query.response_bytes_p50":     median(bytes),
		"query.result_cache_hit_ratio": float64(st.ResultCacheHits) / float64(max(st.ResultCacheHits+st.ResultCacheMisses, 1)),
		"query.rejected":               float64(st.Rejected),
	}, nil
}

// spanHeader carries a client span's request id and span id to the
// server, so the handler's span joins the request that caused it.
const spanHeader = "X-Perfbench-Span"

type spanKey struct{}

type spanRef struct {
	req int64
	id  int
}

// withSpan marks ctx as belonging to request req's client span id.
func withSpan(ctx context.Context, req int64, id int) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{req, id})
}

// spanTransport adds the span header to requests sent under withSpan.
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ref, ok := r.Context().Value(spanKey{}).(spanRef); ok {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, fmt.Sprintf("%d/%d", ref.req, ref.id))
	}
	return t.base.RoundTrip(r)
}

// spanFrom reads the span header: the parent span id and request id.
// A request sent without it, such as the stats call, keeps zero ids.
func spanFrom(r *http.Request) (parent int, req int64) {
	_, _ = fmt.Sscanf(r.Header.Get(spanHeader), "%d/%d", &req, &parent)
	return parent, req
}

// countingWriter counts the bytes of a response body.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += n
	return n, err
}
