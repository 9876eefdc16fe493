package main

import (
	"fmt"
	"time"
	"unsafe"

	"scaldift/internal/bdd"
	"scaldift/internal/dift"
	"scaldift/internal/lineage"
	"scaldift/internal/pipeline"
	"scaldift/internal/prog"
	"scaldift/internal/vm"
)

// The dift-lineage workload: offloaded lineage DIFT (pipeline.Run with
// two workers) over prog.MapReduceSquares at four threads. Its windows
// mix single-chain, learned fast-path, grouped and merged dispatch, so
// the recorder, the pipeline and propagation do nearly all the work.
const (
	diftThreads = 4
	diftWorkers = 2
	// diftJobWords sizes one analyzed execution (~3.3M instructions,
	// about two seconds on a 2-CPU host), so the timed phase measures
	// steady-state analysis rather than start-up.
	diftJobWords = 250_000
	// diftStageWords sizes the traced run's stage measurements; the
	// record stage keeps every batch in memory, so it stays small.
	diftStageWords = 40_000
	// setupReps is how many times each run sets up; setup_s is the
	// median. stageReps is the fewest passes of a traced stage.
	setupReps = 5
	stageReps = 3
)

// eventBytes is what the recorder copies into a batch per recorded
// event: the trace that crosses from the execution thread to the
// analysis workers.
const eventBytes = float64(unsafe.Sizeof(vm.Event{}))

// noTrace is the disabled tracer the untraced passes use.
var noTrace = newTracer(false)

func diftWorkload(words int, seed uint64) *prog.Workload {
	w := prog.MapReduceSquares(diftThreads, seededWords(words, seed), seed)
	w.Cfg.Seed = seed
	return w
}

// lineageJob is one analyzed execution.
type lineageJob struct {
	steps    uint64 // instructions executed
	recorded uint64 // events the recorder shipped to the pipeline
	wall     time.Duration
	err      error // the first check that failed
}

// newLineagePipeline builds the two-worker lineage pipeline for w with
// a recorder sink collecting each output's lineage.
func newLineagePipeline(w *prog.Workload) (*pipeline.Pipeline[bdd.Ref], *lineage.LockedDomain, *lineage.Recorder) {
	d := lineage.NewLockedDomain(lineage.BitsFor(len(w.Inputs[prog.ChIn]) + 8))
	p := pipeline.New[bdd.Ref](d, dift.DefaultPolicy(), pipeline.Options{Workers: diftWorkers})
	rec := lineage.NewRecorder(d.Domain)
	p.AddSink(rec)
	return p, d, rec
}

// analyzeLineage runs w under the concurrent offloaded pipeline (the
// deployed shape: recording and analysis overlap) and checks it.
func analyzeLineage(w *prog.Workload, tr *tracer, parent int) lineageJob {
	sp := tr.begin("vm.NewMachine", parent, 0)
	m := w.NewMachine()
	tr.end(sp)
	p, _, rec := newLineagePipeline(w)
	sp = tr.begin("pipeline.Run", parent, 0)
	t0 := time.Now()
	res := pipeline.Run(m, p)
	wall := time.Since(t0)
	tr.end(sp)
	job := lineageJob{steps: m.Steps(), recorded: p.Events(), wall: wall}
	if res.Failed {
		job.err = fmt.Errorf("run failed at pc %d: %s", res.FailPC, res.FailMsg)
		return job
	}
	sp = tr.begin("lineage.Recorder.Lineage", parent, 0)
	job.err = checkLineage(w, m, rec)
	tr.end(sp)
	return job
}

// checkLineage holds one analyzed execution to the workload's
// self-check and to WantLineage, output by output.
func checkLineage(w *prog.Workload, m *vm.Machine, rec *lineage.Recorder) error {
	if w.Check != nil {
		if err := w.Check(m); err != nil {
			return err
		}
	}
	if len(rec.Outputs) != len(w.WantLineage) {
		return fmt.Errorf("%d outputs recorded, want %d", len(rec.Outputs), len(w.WantLineage))
	}
	for i, want := range w.WantLineage {
		if got := rec.Lineage(i).Elements; !lineage.SortedEquals(got, want) {
			return fmt.Errorf("output %d: lineage has %d inputs, want %d", i, len(got), len(want))
		}
	}
	return nil
}

func runDiftLineage(cfg runConfig, res *result) error {
	// Each set-up analyzes one full-size execution: a smaller one left
	// the first timed execution paying for heap growth, which made it
	// the slowest of the run.
	setup, err := medianOf(setupReps, func() (float64, error) {
		t0 := time.Now()
		job := analyzeLineage(diftWorkload(diftJobWords, subSeed(cfg.seed, 0, 0)), noTrace, 0)
		res.op(job.err == nil, "set-up analysis: %v", job.err)
		return time.Since(t0).Seconds(), nil
	})
	if err != nil {
		return err
	}
	if cfg.trace {
		return traceDiftLineage(cfg, res)
	}
	res.set("setup_s", setup)

	heap := startHeapPeak()
	end := deadline(cfg.seconds)
	var walls, rates []float64
	var steps uint64
	var busy, bytesPerEvent float64
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		w := diftWorkload(diftJobWords, subSeed(cfg.seed, 1, i))
		job := analyzeLineage(w, noTrace, 0)
		res.op(job.err == nil, "execution %d: %v", i, job.err)
		walls = append(walls, job.wall.Seconds()*1e3)
		rates = append(rates, float64(job.steps)/job.wall.Seconds())
		steps += job.steps
		busy += job.wall.Seconds()
		if i == 0 {
			// Execution 0 always runs, so the figure is a function of
			// --seed alone, not of how many executions fit the run.
			bytesPerEvent = float64(job.recorded) * eventBytes / float64(job.steps)
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
	res.context["query"] = "one execution analyzed end to end (closed loop, one at a time)"
	return nil
}

// traceDiftLineage is the traced run: the tracing overhead on one
// analyzed execution, then the interpreter, the recorder and the
// pipeline measured one at a time, each for a quarter of the run.
func traceDiftLineage(cfg runConfig, res *result) error {
	w := diftWorkload(diftStageWords, subSeed(cfg.seed, 2, 0))
	budget := cfg.seconds / 4
	err := repeatStage(res, budget, func() (map[string]float64, error) {
		plain := analyzeLineage(w, noTrace, 0)
		root := cfg.tr.begin("dift-lineage.execution", 0, 0)
		traced := analyzeLineage(w, cfg.tr, root)
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
		sp := cfg.tr.begin("pipeline.Collect", 0, 0)
		t0 := time.Now()
		b, r := pipeline.Collect(m, vm.DefaultBatchEvents)
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

	// Consume never mutates or recycles the batches, so every pass
	// analyzes the same recorded stream through a fresh pipeline.
	var learner pipeline.LearnerStats
	err = repeatStage(res, budget, func() (map[string]float64, error) {
		p, d, rec := newLineagePipeline(w)
		mark := markAllocs()
		sp := cfg.tr.begin("pipeline.Consume", 0, 0)
		t0 := time.Now()
		p.Consume(batches)
		p.Close()
		wall := time.Since(t0)
		cfg.tr.end(sp)
		bytes, objects := mark.since()
		// The recorded stream has no machine to self-check against, so
		// hold the lineage alone to the ground truth.
		err := checkLineage(&prog.Workload{WantLineage: w.WantLineage}, nil, rec)
		res.op(err == nil, "analyze stage: %v", err)
		learner = p.ConflictStats()
		win := float64(max(learner.Windows, 1))
		return map[string]float64{
			"pipeline.analyze_events_per_s":     float64(steps) / wall.Seconds(),
			"pipeline.alloc_bytes_per_event":    bytes / float64(steps),
			"pipeline.allocs_per_event":         objects / float64(steps),
			"pipeline.fast_parallel_ratio":      float64(learner.FastParallel) / win,
			"pipeline.precise_scan_ratio":       float64(learner.PreciseScans) / win,
			"pipeline.grouped_ratio":            float64(learner.GroupedParallel) / win,
			"pipeline.ordered_merge_ratio":      float64(learner.OrderedMerges) / win,
			"pipeline.verify_misses_per_kevent": float64(learner.VerifyMisses) / (float64(steps) / 1e3),
			"lineage.bdd_nodes":                 float64(d.Manager().NumNodes()),
		}, nil
	})
	res.context["stage_events"] = steps
	res.context["learner"] = learner
	return err
}

// nativePass measures the tool-free interpreter's instructions per
// second on w.
func nativePass(w *prog.Workload, tr *tracer) func() (map[string]float64, error) {
	return func() (map[string]float64, error) {
		m := w.NewMachine()
		sp := tr.begin("vm.Machine.Run", 0, 0)
		t0 := time.Now()
		r := m.Run()
		wall := time.Since(t0)
		tr.end(sp)
		if r.Failed {
			return nil, fmt.Errorf("native run failed: %s", r.FailMsg)
		}
		return map[string]float64{"vm.native_events_per_s": float64(m.Steps()) / wall.Seconds()}, nil
	}
}
