package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"scaldift/internal/ddg"
	"scaldift/internal/ontrac"
	"scaldift/internal/prog"
	"scaldift/internal/slicing"
)

// The BenchmarkStore* suite measures the persistence layer: spill
// throughput (sync and async writers over a pre-recorded chunk
// stream), cold-reopen backward-slice latency, and the parallel
// offline slicer's speedup over sequential traversal of the same
// reopened store.

// benchWorkload is the multi-thread trace the benches slice: parallel
// partial sums whose backward closure from the final output crosses
// every worker thread's full add chain.
func benchWorkload() *prog.Workload { return prog.PSum(4, 30000, 7) }

// chunkSink retains spilled chunks (bench-local mirror of the test
// sink in ddg).
type chunkSink struct{ chunks []ddg.RawChunk }

func (s *chunkSink) SpillChunk(ch ddg.RawChunk) { s.chunks = append(s.chunks, ch) }

var benchOnce struct {
	sync.Once
	chunks []ddg.RawChunk // the workload's spilled chunk stream
	bytes  uint64
	events uint64
}

// benchChunks records the bench workload once and captures its chunk
// stream (unoptimized: every dependence stored).
func benchChunks(b testing.TB) ([]ddg.RawChunk, uint64) {
	benchOnce.Do(func() {
		w := benchWorkload()
		m := w.NewMachine()
		tr := ontrac.New(w.Prog, ontrac.Unoptimized())
		var sink chunkSink
		tr.Buffer().SetSpill(&sink)
		m.AttachTool(tr.Tool())
		if res := m.Run(); res.Failed {
			b.Fatal(res.FailMsg)
		}
		tr.Buffer().Flush()
		benchOnce.chunks = sink.chunks
		benchOnce.bytes = tr.Buffer().BytesWritten()
		benchOnce.events = m.Steps()
	})
	return benchOnce.chunks, benchOnce.bytes
}

// spillChunks writes the chunk stream through a fresh writer.
func spillChunks(b testing.TB, dir string, async bool, chunks []ddg.RawChunk) {
	w, err := Create(Options{Dir: dir, Async: async})
	if err != nil {
		b.Fatal(err)
	}
	for _, ch := range chunks {
		w.SpillChunk(ch)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
}

func benchSpill(b *testing.B, async bool) {
	chunks, bytes := benchChunks(b)
	dir := b.TempDir()
	b.SetBytes(int64(bytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spillChunks(b, filepath.Join(dir, fmt.Sprint(i)), async, chunks)
	}
}

func BenchmarkStoreSpillSync(b *testing.B)  { benchSpill(b, false) }
func BenchmarkStoreSpillAsync(b *testing.B) { benchSpill(b, true) }

// benchStoreDir lazily materializes one spilled store for the read
// benches; TestMain removes it.
var benchStoreDir struct {
	sync.Once
	dir string
}

func TestMain(m *testing.M) {
	code := m.Run()
	if benchStoreDir.dir != "" {
		os.RemoveAll(benchStoreDir.dir)
	}
	os.Exit(code)
}

func benchStore(b testing.TB) string {
	benchStoreDir.Do(func() {
		chunks, _ := benchChunks(b)
		dir, err := os.MkdirTemp("", "scaldift-bench-store")
		if err != nil {
			b.Fatal(err)
		}
		spillChunks(b, dir, false, chunks)
		benchStoreDir.dir = dir
	})
	return benchStoreDir.dir
}

// benchCriterion returns the slicing start: the newest recorded
// instance of the main thread (the final output, whose closure spans
// all worker threads).
func benchCriterion(b testing.TB, r *Reader) slicing.Criterion {
	_, hi := r.Window(0)
	id := ddg.MakeID(0, hi)
	pc, ok := r.NodePC(id)
	if !ok {
		b.Fatal("no record at window top")
	}
	return slicing.Criterion{ID: id, PC: pc}
}

// coldSlice reopens the store from disk and runs one backward slice
// (workers <= 1: sequential).
func coldSlice(b testing.TB, dir string, workers int) *slicing.Slice {
	r, err := Open(dir, ReaderOptions{CacheChunks: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	w := benchWorkload()
	crit := benchCriterion(b, r)
	opts := slicing.Options{FollowControl: true}
	var s *slicing.Slice
	if workers <= 1 {
		s = slicing.Backward(r, w.Prog, []slicing.Criterion{crit}, opts)
	} else {
		s = slicing.ParallelBackward(r, w.Prog, []slicing.Criterion{crit}, opts, workers)
	}
	if s.Nodes < 1000 {
		b.Fatalf("closure too small to mean anything: %d nodes", s.Nodes)
	}
	return s
}

func benchReopenSlice(b *testing.B, workers int) {
	dir := benchStore(b)
	b.ResetTimer()
	var nodes int
	for i := 0; i < b.N; i++ {
		nodes = coldSlice(b, dir, workers).Nodes
	}
	if el := b.Elapsed().Seconds(); el > 0 {
		b.ReportMetric(float64(nodes*b.N)/el, "nodes/s")
	}
}

func BenchmarkStoreReopenBackwardSeq(b *testing.B) { benchReopenSlice(b, 1) }
func BenchmarkStoreParallelBackward(b *testing.B)  { benchReopenSlice(b, 2) }
