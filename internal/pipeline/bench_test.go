package pipeline

import (
	"testing"
	"time"

	"scaldift/internal/bdd"
	"scaldift/internal/dift"
	"scaldift/internal/lineage"
	"scaldift/internal/prog"
	"scaldift/internal/vm"
)

// The BenchmarkPipeline* suite measures inline vs. offloaded DIFT on
// prog workloads: events/s (VM instructions analyzed per second of
// wall time) and slowdown-vs-native (instrumented wall time over the
// tool-free run). Offloaded variants run the full concurrent
// pipeline end-to-end at 1/2/4 workers. The end-to-end analyze
// numbers live in perfbench's dift-lineage workload.

// runInline executes w's machine under an inline engine of the named
// domain and returns the steps analyzed.
func runInline(b testing.TB, w *prog.Workload, domain string) uint64 {
	m := w.NewMachine()
	switch domain {
	case "bool":
		m.AttachTool(dift.NewEngine[bool](dift.Bool{}, dift.DefaultPolicy()))
	case "lineage":
		d := lineage.NewDomain(lineage.BitsFor(len(w.Inputs[prog.ChIn]) + 8))
		e := dift.NewEngine[bdd.Ref](d, dift.DefaultPolicy())
		e.AddSink(lineage.NewRecorder(d))
		m.AttachTool(e)
	default:
		b.Fatalf("unknown domain %q", domain)
	}
	if res := m.Run(); res.Failed {
		b.Fatal(res.FailMsg)
	}
	return m.Steps()
}

// runOffloaded executes w's machine with the concurrent pipeline
// attached and returns the steps analyzed.
func runOffloaded(b testing.TB, w *prog.Workload, domain string, workers int) uint64 {
	m := w.NewMachine()
	opt := Options{Workers: workers}
	var res *vm.Result
	switch domain {
	case "bool":
		p := New[bool](dift.Bool{}, dift.DefaultPolicy(), opt)
		res = Run(m, p)
	case "lineage":
		d := lineage.NewLockedDomain(lineage.BitsFor(len(w.Inputs[prog.ChIn]) + 8))
		p := New[bdd.Ref](d, dift.DefaultPolicy(), opt)
		p.AddSink(lineage.NewRecorder(d.Domain))
		res = Run(m, p)
	default:
		b.Fatalf("unknown domain %q", domain)
	}
	if res.Failed {
		b.Fatal(res.FailMsg)
	}
	return m.Steps()
}

func benchPipeline(b *testing.B, mk func() *prog.Workload, domain string, workers int) {
	// Native baseline, untimed: tool-free wall per run.
	wn := mk()
	mn := wn.NewMachine()
	t0 := time.Now()
	if res := mn.Run(); res.Failed {
		b.Fatal(res.FailMsg)
	}
	nativeSec := time.Since(t0).Seconds()

	b.ResetTimer()
	var steps uint64
	for i := 0; i < b.N; i++ {
		w := mk()
		if workers == 0 {
			steps += runInline(b, w, domain)
		} else {
			steps += runOffloaded(b, w, domain, workers)
		}
	}
	el := b.Elapsed().Seconds()
	if el > 0 {
		b.ReportMetric(float64(steps)/el, "events/s")
	}
	if nativeSec > 0 {
		b.ReportMetric(el/float64(b.N)/nativeSec, "x-native")
	}
}

func mkStreamAgg() *prog.Workload  { return prog.StreamAgg(4096, 4, 21) }
func mkKeyedMerge() *prog.Workload { return prog.KeyedMerge(64, 512, 22) }
func mkMapReduce() *prog.Workload  { return prog.MapReduceSquares(4, 8192, 23) }

func BenchmarkPipelineStreamAggLineageInline(b *testing.B) {
	benchPipeline(b, mkStreamAgg, "lineage", 0)
}
func BenchmarkPipelineStreamAggLineageW1(b *testing.B)  { benchPipeline(b, mkStreamAgg, "lineage", 1) }
func BenchmarkPipelineStreamAggLineageW2(b *testing.B)  { benchPipeline(b, mkStreamAgg, "lineage", 2) }
func BenchmarkPipelineStreamAggLineageW4(b *testing.B)  { benchPipeline(b, mkStreamAgg, "lineage", 4) }
func BenchmarkPipelineStreamAggBoolInline(b *testing.B) { benchPipeline(b, mkStreamAgg, "bool", 0) }
func BenchmarkPipelineStreamAggBoolW2(b *testing.B)     { benchPipeline(b, mkStreamAgg, "bool", 2) }
func BenchmarkPipelineKeyedMergeLineageInline(b *testing.B) {
	benchPipeline(b, mkKeyedMerge, "lineage", 0)
}
func BenchmarkPipelineKeyedMergeLineageW2(b *testing.B) { benchPipeline(b, mkKeyedMerge, "lineage", 2) }
func BenchmarkPipelineMapReduceLineageInline(b *testing.B) {
	benchPipeline(b, mkMapReduce, "lineage", 0)
}
func BenchmarkPipelineMapReduceLineageW2(b *testing.B) { benchPipeline(b, mkMapReduce, "lineage", 2) }

// benchEpochAnalyze measures the analyze stage alone: one offline
// trace, recorded once, propagated through a fresh epoch-sharded
// pipeline per iteration: the propagation speed of the epoch-sharded
// shadow path, with the recorder out of the picture.
func benchEpochAnalyze(b *testing.B, mk func() *prog.Workload, domain string, workers int) {
	w := mk()
	m := w.NewMachine()
	trace, res := Collect(m, vm.DefaultBatchEvents)
	if res.Failed {
		b.Fatal(res.FailMsg)
	}
	steps := m.Steps()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		consumeTrace(b, w, domain, workers, trace)
	}
	if el := b.Elapsed().Seconds(); el > 0 {
		b.ReportMetric(float64(steps)*float64(b.N)/el, "events/s")
	}
}

func BenchmarkPipelineEpochStreamAggLineageW2(b *testing.B) {
	benchEpochAnalyze(b, mkStreamAgg, "lineage", 2)
}
func BenchmarkPipelineEpochKeyedMergeLineageW2(b *testing.B) {
	benchEpochAnalyze(b, mkKeyedMerge, "lineage", 2)
}
func BenchmarkPipelineEpochMapReduceLineageW2(b *testing.B) {
	benchEpochAnalyze(b, mkMapReduce, "lineage", 2)
}
func BenchmarkPipelineEpochStreamAggBoolW2(b *testing.B) {
	benchEpochAnalyze(b, mkStreamAgg, "bool", 2)
}

// consumeTrace propagates an offline trace through a fresh pipeline.
func consumeTrace(t testing.TB, w *prog.Workload, domain string, workers int, batches []*vm.Batch) {
	opt := Options{Workers: workers}
	switch domain {
	case "bool":
		p := New[bool](dift.Bool{}, dift.DefaultPolicy(), opt)
		p.Consume(batches)
		p.Close()
	case "lineage":
		d := lineage.NewLockedDomain(lineage.BitsFor(len(w.Inputs[prog.ChIn]) + 8))
		p := New[bdd.Ref](d, dift.DefaultPolicy(), opt)
		p.AddSink(lineage.NewRecorder(d.Domain))
		p.Consume(batches)
		p.Close()
	default:
		t.Fatalf("unknown domain %q", domain)
	}
}
