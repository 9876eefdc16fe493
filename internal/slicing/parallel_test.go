package slicing

import (
	"fmt"
	"testing"

	"scaldift/internal/ddg"
	"scaldift/internal/prog"
)

// buildWorkloadGraph runs a workload under the full extractor with a
// randomized schedule and returns its graph.
func buildWorkloadGraph(t testing.TB, w *prog.Workload, seed uint64) *ddg.Full {
	t.Helper()
	w.Cfg.Seed = seed
	w.Cfg.RandomPreempt = true
	if w.Cfg.Quantum == 0 {
		w.Cfg.Quantum = 13
	}
	m := w.NewMachine()
	sink := ddg.NewFullSink()
	m.AttachTool(ddg.NewExtractor(w.Prog, sink, ddg.ExtractorOpts{ControlDeps: true}))
	if res := m.Run(); res.Failed {
		t.Fatalf("%s: %s", w.Name, res.FailMsg)
	}
	return sink.G
}

// newestWithDeps returns the thread's newest instance that has at
// least one dependence (the halt at the very end slices empty).
func newestWithDeps(g *ddg.Full, tid int) ddg.ID {
	lo, hi := g.Window(tid)
	for n := hi; n >= lo && lo != 0; n-- {
		id := ddg.MakeID(tid, n)
		if len(ddg.CountDeps(g, id)) > 0 {
			return id
		}
	}
	return 0
}

// TestParallelBackwardMatchesSequential holds the sharded backward
// traversal to the one-shard run's exact results (Lines, PCs, Nodes,
// Edges, truncation) on every workload, across worker counts, from
// every thread's newest instance. The one-shard run is the sequential
// slicer: one goroutine drains every thread.
func TestParallelBackwardMatchesSequential(t *testing.T) {
	for _, w := range prog.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			g := buildWorkloadGraph(t, w, 1)
			opts := Options{FollowControl: true}
			for _, tid := range g.Threads() {
				crit := newestWithDeps(g, tid)
				if crit == 0 {
					continue
				}
				pc, ok := g.NodePC(crit)
				if !ok {
					pc = -1
				}
				crits := []Criterion{{ID: crit, PC: pc}}
				one := ParallelBackward(g, w.Prog, crits, opts, 1)
				for _, workers := range []int{2, 4} {
					par := ParallelBackward(g, w.Prog, crits, opts, workers)
					if fmt.Sprint(one.Lines) != fmt.Sprint(par.Lines) {
						t.Fatalf("tid %d workers %d: lines diverged\none %v\npar %v",
							tid, workers, one.Lines, par.Lines)
					}
					if fmt.Sprint(mapKeys(one.PCs)) != fmt.Sprint(mapKeys(par.PCs)) {
						t.Fatalf("tid %d workers %d: PC sets diverged", tid, workers)
					}
					if one.Nodes != par.Nodes || one.Edges != par.Edges {
						t.Fatalf("tid %d workers %d: traversal diverged: %d/%d nodes, %d/%d edges",
							tid, workers, one.Nodes, par.Nodes, one.Edges, par.Edges)
					}
					if one.TruncatedAtWindow != par.TruncatedAtWindow {
						t.Fatalf("tid %d workers %d: truncation flags diverged", tid, workers)
					}
				}
			}
		})
	}
}

// TestParallelBackwardMultiCriteria slices from all threads' ends at
// once — the fan-out case the parallel traversal exists for.
func TestParallelBackwardMultiCriteria(t *testing.T) {
	w := prog.PSum(4, 300, 7)
	g := buildWorkloadGraph(t, w, 3)
	var crits []Criterion
	for _, tid := range g.Threads() {
		id := newestWithDeps(g, tid)
		if id == 0 {
			continue
		}
		pc, ok := g.NodePC(id)
		if !ok {
			pc = -1
		}
		crits = append(crits, Criterion{ID: id, PC: pc})
	}
	opts := Options{FollowControl: true}
	one := ParallelBackward(g, w.Prog, crits, opts, 1)
	par := ParallelBackward(g, w.Prog, crits, opts, 4)
	if fmt.Sprint(one.Lines) != fmt.Sprint(par.Lines) || one.Nodes != par.Nodes || one.Edges != par.Edges {
		t.Fatalf("diverged: one shard %d/%d %v, sharded %d/%d %v",
			one.Nodes, one.Edges, one.Lines, par.Nodes, par.Edges, par.Lines)
	}
	if one.Nodes < 100 {
		t.Fatalf("closure too small to be meaningful: %d nodes", one.Nodes)
	}
}
