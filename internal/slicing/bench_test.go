package slicing

import (
	"testing"

	"scaldift/internal/ddg"
	"scaldift/internal/prog"
)

// benchForward times one forward slice over a warm ddg.Full (psum,
// four threads of 3000 elements) from every thread's oldest recorded
// instance; the reverse-adjacency scan of every window dominates.
func benchForward(b *testing.B, workers int) {
	w := prog.PSum(4, 3000, 7)
	g := buildWorkloadGraph(b, w, 1)
	var starts []ddg.ID
	for _, tid := range g.Threads() {
		if id := oldestWithDeps(g, tid); id != 0 {
			starts = append(starts, id)
		}
	}
	opts := Options{FollowControl: true}
	b.ReportAllocs()
	b.ResetTimer()
	var nodes int
	for i := 0; i < b.N; i++ {
		nodes = ParallelForward(g, w.Prog, starts, opts, workers).Nodes
	}
	if nodes < 1000 {
		b.Fatalf("closure too small to mean anything: %d nodes", nodes)
	}
}

func BenchmarkForwardOneShard(b *testing.B) { benchForward(b, 1) }
func BenchmarkForwardSharded(b *testing.B)  { benchForward(b, 4) }
