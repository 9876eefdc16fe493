package ontrac

import (
	"testing"

	"scaldift/internal/ddg"
	"scaldift/internal/pipeline"
	"scaldift/internal/prog"
	"scaldift/internal/vm"
)

// The BenchmarkOntracPipeline* suite measures inline vs. offloaded
// ONTRAC tracing on prog workloads: events/s of the execution thread
// (VM instructions over wall time). RecordOnly is the paper's
// headline comparison — what the execution thread pays when tracing
// is offloaded (one filter check + one struct copy per instruction)
// versus carrying the full extractor inline.

func benchWorkloads() map[string]func() *prog.Workload {
	return map[string]func() *prog.Workload{
		"compress": func() *prog.Workload { return prog.Compress(12000, 1) },
		"matmul":   func() *prog.Workload { return prog.MatMul(14, 3) },
		"psum":     func() *prog.Workload { return prog.PSum(4, 4000, 7) },
	}
}

// runOntracInline executes w's machine under the inline tracer and
// returns the steps traced.
func runOntracInline(b testing.TB, w *prog.Workload, opts Options) uint64 {
	m := w.NewMachine()
	tr := New(w.Prog, opts)
	m.AttachTool(tr.Tool())
	if res := m.Run(); res.Failed {
		b.Fatal(res.FailMsg)
	}
	return m.Steps()
}

// runOntracRecordOnly executes w's machine with only the batching
// recorder attached (the offloaded design's execution-thread cost).
func runOntracRecordOnly(b testing.TB, w *prog.Workload) uint64 {
	m := w.NewMachine()
	var rec *vm.Recorder
	rec = vm.NewRecorder(vm.DefaultBatchEvents, ddg.TraceRelevant, func(bt *vm.Batch) { rec.Free(bt) })
	m.AttachTool(rec)
	if res := m.Run(); res.Failed {
		b.Fatal(res.FailMsg)
	}
	rec.Flush()
	return m.Steps()
}

// runOntracOffloaded executes w's machine with the full concurrent
// offloaded stage attached.
func runOntracOffloaded(b testing.TB, w *prog.Workload, opts Options, workers int) uint64 {
	m := w.NewMachine()
	off := NewOffloaded(w.Prog, opts, pipeline.Options{Workers: workers})
	if res := Trace(m, off); res.Failed {
		b.Fatal(res.FailMsg)
	}
	return m.Steps()
}

func benchOntrac(b *testing.B, name, mode string, workers int) {
	mk := benchWorkloads()[name]
	opts := AllOptimizations()
	b.ResetTimer()
	var steps uint64
	for i := 0; i < b.N; i++ {
		w := mk()
		switch mode {
		case "inline":
			steps += runOntracInline(b, w, opts)
		case "record":
			steps += runOntracRecordOnly(b, w)
		case "offloaded":
			steps += runOntracOffloaded(b, w, opts, workers)
		}
	}
	if el := b.Elapsed().Seconds(); el > 0 {
		b.ReportMetric(float64(steps)/el, "events/s")
	}
}

func BenchmarkOntracPipelineCompressInline(b *testing.B) { benchOntrac(b, "compress", "inline", 0) }
func BenchmarkOntracPipelineCompressRecordOnly(b *testing.B) {
	benchOntrac(b, "compress", "record", 0)
}
func BenchmarkOntracPipelineCompressOffloadedW2(b *testing.B) {
	benchOntrac(b, "compress", "offloaded", 2)
}
func BenchmarkOntracPipelineCompressOffloadedW4(b *testing.B) {
	benchOntrac(b, "compress", "offloaded", 4)
}
func BenchmarkOntracPipelineMatmulInline(b *testing.B)     { benchOntrac(b, "matmul", "inline", 0) }
func BenchmarkOntracPipelineMatmulRecordOnly(b *testing.B) { benchOntrac(b, "matmul", "record", 0) }
func BenchmarkOntracPipelineMatmulOffloadedW2(b *testing.B) {
	benchOntrac(b, "matmul", "offloaded", 2)
}
func BenchmarkOntracPipelinePsumInline(b *testing.B)     { benchOntrac(b, "psum", "inline", 0) }
func BenchmarkOntracPipelinePsumRecordOnly(b *testing.B) { benchOntrac(b, "psum", "record", 0) }
func BenchmarkOntracPipelinePsumOffloadedW2(b *testing.B) {
	benchOntrac(b, "psum", "offloaded", 2)
}
