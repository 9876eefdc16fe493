package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"scaldift/internal/ddg"
	"scaldift/internal/ontrac"
	"scaldift/internal/pipeline"
	"scaldift/internal/prog"
	"scaldift/internal/store"
	"scaldift/internal/vm"
)

// The trace-record workload: offloaded ONTRAC (two workers,
// ontrac.StaticOptions) over prog.PSum at four threads, spilling into
// a fresh synchronous store.Writer (SyncOnSeal off). It is the write
// side: recorder, consumer, ONTRAC phases 1-3 and the writer, with no
// propagation, reader, slicing or query work.
const (
	psumThreads   = 4
	recordWorkers = 2
	// recordJobWords sizes one recorded execution (~1.9M
	// instructions, about a second on a 2-CPU host).
	recordJobWords = 160_000
	// recordWarmWords sizes the execution each set-up records.
	recordWarmWords = 40_000
	// recordStageWords sizes the traced run's stage measurements.
	recordStageWords = 40_000
)

func psumWorkload(words int, seed uint64) *prog.Workload {
	w := prog.PSum(psumThreads, seededWords(words, seed), seed)
	w.Cfg.Seed = seed
	return w
}

// recordJob is one execution recorded to a closed store.
type recordJob struct {
	steps uint64
	wall  time.Duration // store.Create through Writer.Close
	stats ontrac.Stats
	err   error
}

// recordToStore traces w through the offloaded ONTRAC stage into a
// new store at dir and closes it.
func recordToStore(w *prog.Workload, dir string, tr *tracer, parent int) (recordJob, *store.Writer) {
	t0 := time.Now()
	sp := tr.begin("store.Create", parent, 0)
	wr, err := store.Create(store.Options{Dir: dir})
	tr.end(sp)
	if err != nil {
		return recordJob{err: err}, nil
	}
	sp = tr.begin("vm.NewMachine", parent, 0)
	m := w.NewMachine()
	tr.end(sp)
	off := ontrac.NewOffloaded(w.Prog, ontrac.StaticOptions(), pipeline.Options{Workers: recordWorkers})
	off.SpillTo(wr)
	sp = tr.begin("ontrac.Trace", parent, 0)
	res := ontrac.Trace(m, off)
	tr.end(sp)
	sp = tr.begin("store.Writer.Close", parent, 0)
	cerr := wr.Close()
	tr.end(sp)
	job := recordJob{steps: m.Steps(), wall: time.Since(t0), stats: off.Stats()}
	switch {
	case cerr != nil:
		job.err = cerr
	case res.Failed:
		job.err = fmt.Errorf("run failed at pc %d: %s", res.FailPC, res.FailMsg)
	case w.Check != nil:
		job.err = w.Check(m)
	}
	if job.err == nil && wr.BytesSpilled() != job.stats.BytesWritten {
		job.err = fmt.Errorf("writer spilled %d bytes, the stage produced %d", wr.BytesSpilled(), job.stats.BytesWritten)
	}
	return job, wr
}

// checkReopen reopens a closed store and checks it is whole: not a
// crash-recovered prefix, and holding every chunk the writer spilled.
// (A reopened store reports chunks, not bytes; the writer's byte
// count is checked against the stage's in recordToStore.)
func checkReopen(dir string, wr *store.Writer) error {
	r, err := store.Open(dir, store.ReaderOptions{})
	if err != nil {
		return err
	}
	defer r.Close()
	if r.Recovered() {
		return fmt.Errorf("store reopened as a recovered prefix")
	}
	if got, want := r.Chunks(), wr.ChunksSpilled(); uint64(got) != want {
		return fmt.Errorf("store reopened with %d chunks, writer spilled %d", got, want)
	}
	return nil
}

// recordChecked records w into dir, checks the reopened store, and
// removes it.
func recordChecked(w *prog.Workload, dir string, tr *tracer, parent int) recordJob {
	job, wr := recordToStore(w, dir, tr, parent)
	if job.err == nil {
		job.err = checkReopen(dir, wr)
	}
	if err := os.RemoveAll(dir); err != nil && job.err == nil {
		job.err = err
	}
	return job
}

func runTraceRecord(cfg runConfig, res *result) error {
	setup, err := medianOf(setupReps, func() (float64, error) {
		t0 := time.Now()
		job := recordChecked(psumWorkload(recordWarmWords, subSeed(cfg.seed, 0, 0)), filepath.Join(cfg.workDir, "warm"), noTrace, 0)
		res.op(job.err == nil, "set-up recording: %v", job.err)
		return time.Since(t0).Seconds(), nil
	})
	if err != nil {
		return err
	}
	if cfg.trace {
		return traceTraceRecord(cfg, res)
	}
	res.set("setup_s", setup)

	heap := startHeapPeak()
	end := deadline(cfg.seconds)
	var walls, rates []float64
	var steps uint64
	var busy, bytesPerEvent float64
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		w := psumWorkload(recordJobWords, subSeed(cfg.seed, 1, i))
		job := recordChecked(w, filepath.Join(cfg.workDir, fmt.Sprintf("job-%d", i)), noTrace, 0)
		res.op(job.err == nil, "execution %d: %v", i, job.err)
		walls = append(walls, job.wall.Seconds()*1e3)
		rates = append(rates, float64(job.steps)/job.wall.Seconds())
		steps += job.steps
		busy += job.wall.Seconds()
		if i == 0 {
			// Execution 0 always runs, so the figure is a function of
			// --seed alone, not of how many executions fit the run.
			bytesPerEvent = float64(job.stats.BytesWritten) / float64(job.steps)
		}
	}
	res.set("peak_heap_mb", heap.mb())
	res.set("events_per_s", median(rates))
	res.set("trace_bytes_per_event", bytesPerEvent)
	res.set("query_p50_ms", median(walls))
	res.set("query_p99_ms", quantile(walls, 0.99))
	res.set("sustained_qps", float64(len(walls))/busy)
	res.context["executions"] = len(walls)
	res.context["events_per_execution"] = steps / uint64(len(walls))
	res.context["query"] = "one execution recorded to a closed store (closed loop, one at a time)"
	return nil
}

// chunkSink keeps every spilled chunk in memory, so the writer can be
// measured alone on a replay of the same stream.
type chunkSink struct {
	mu     sync.Mutex
	chunks []ddg.RawChunk
	bytes  uint64
}

func (s *chunkSink) SpillChunk(ch ddg.RawChunk) {
	s.mu.Lock()
	s.chunks = append(s.chunks, ch)
	s.bytes += uint64(len(ch.Buf))
	s.mu.Unlock()
}

// traceTraceRecord is the traced run: tracing overhead on one recorded
// execution, then the interpreter, the recorder, ONTRAC analysis, the
// inline baseline and the writer measured one at a time, each for a
// sixth of the run.
func traceTraceRecord(cfg runConfig, res *result) error {
	w := psumWorkload(recordStageWords, subSeed(cfg.seed, 2, 0))
	budget := cfg.seconds / 6
	err := repeatStage(res, budget, func() (map[string]float64, error) {
		plain := recordChecked(w, filepath.Join(cfg.workDir, "plain"), noTrace, 0)
		root := cfg.tr.begin("trace-record.execution", 0, 0)
		traced := recordChecked(w, filepath.Join(cfg.workDir, "traced"), cfg.tr, root)
		cfg.tr.end(root)
		res.op(plain.err == nil && traced.err == nil, "overhead pass: %v / %v", plain.err, traced.err)
		return map[string]float64{"trace.overhead_ratio": traced.wall.Seconds() / plain.wall.Seconds()}, nil
	})
	if err != nil {
		return err
	}
	if err := repeatStage(res, budget, nativePass(w, cfg.tr)); err != nil {
		return err
	}

	var batches []*vm.Batch
	var steps uint64
	err = repeatStage(res, budget, func() (map[string]float64, error) {
		m := w.NewMachine()
		sp := cfg.tr.begin("pipeline.CollectWith", 0, 0)
		t0 := time.Now()
		b, r := pipeline.CollectWith(m, vm.DefaultBatchEvents, ddg.TraceRelevant)
		wall := time.Since(t0)
		cfg.tr.end(sp)
		if r.Failed {
			return nil, fmt.Errorf("record stage: run failed: %s", r.FailMsg)
		}
		batches, steps = b, m.Steps()
		return map[string]float64{"vm.record_events_per_s": float64(steps) / wall.Seconds()}, nil
	})
	if err != nil {
		return err
	}

	// Every pass analyzes the same recorded stream into memory; the
	// last pass's chunks are what the writer stage replays.
	var sink *chunkSink
	var traceBytes uint64
	err = repeatStage(res, budget, func() (map[string]float64, error) {
		off := ontrac.NewOffloaded(w.Prog, ontrac.StaticOptions(), pipeline.Options{Workers: recordWorkers})
		sink = &chunkSink{}
		off.SpillTo(sink)
		mark := markAllocs()
		sp := cfg.tr.begin("ontrac.Offloaded.Consume", 0, 0)
		t0 := time.Now()
		off.Consume(batches)
		off.Close()
		wall := time.Since(t0)
		cfg.tr.end(sp)
		bytes, _ := mark.since()
		st := off.Stats()
		res.op(sink.bytes == st.BytesWritten, "analyze stage: sink holds %d bytes, stage wrote %d", sink.bytes, st.BytesWritten)
		traceBytes = st.BytesWritten
		return map[string]float64{
			"ontrac.analyze_events_per_s":  float64(steps) / wall.Seconds(),
			"ontrac.alloc_bytes_per_event": bytes / float64(steps),
			"ontrac.elided_ratio":          1 - float64(st.DepsStored)/float64(max(st.DepsSeen, 1)),
		}, nil
	})
	if err != nil {
		return err
	}

	err = repeatStage(res, budget, func() (map[string]float64, error) {
		m := w.NewMachine()
		t := ontrac.New(w.Prog, ontrac.StaticOptions())
		m.AttachTool(t.Tool())
		sp := cfg.tr.begin("ontrac.inline", 0, 0)
		t0 := time.Now()
		r := m.Run()
		wall := time.Since(t0)
		cfg.tr.end(sp)
		if r.Failed {
			return nil, fmt.Errorf("inline tracing: run failed: %s", r.FailMsg)
		}
		return map[string]float64{"ontrac.inline_events_per_s": float64(m.Steps()) / wall.Seconds()}, nil
	})
	if err != nil {
		return err
	}

	err = repeatStage(res, budget, func() (map[string]float64, error) {
		dir := filepath.Join(cfg.workDir, "replay")
		sp := cfg.tr.begin("store.Writer", 0, 0)
		t0 := time.Now()
		wr, err := store.Create(store.Options{Dir: dir})
		if err != nil {
			return nil, err
		}
		for _, ch := range sink.chunks {
			wr.SpillChunk(ch)
		}
		if err := wr.Close(); err != nil {
			return nil, err
		}
		wall := time.Since(t0)
		cfg.tr.end(sp)
		err = checkReopen(dir, wr)
		res.op(err == nil, "writer replay: %v", err)
		return map[string]float64{
			"store.spill_mb_per_s":  float64(wr.BytesSpilled()) / 1e6 / wall.Seconds(),
			"store.segments_sealed": float64(wr.SegmentsSealed()),
		}, os.RemoveAll(dir)
	})
	res.context["stage_events"] = steps
	res.context["stage_trace_bytes"] = traceBytes
	return err
}
