package slicing

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"scaldift/internal/ddg"
	"scaldift/internal/prog"
)

// oldestWithDeps returns the thread's oldest instance that has at
// least one dependence — a forward-slice start whose closure is
// non-trivial.
func oldestWithDeps(g *ddg.Full, tid int) ddg.ID {
	lo, hi := g.Window(tid)
	for n := lo; n <= hi && lo != 0; n++ {
		id := ddg.MakeID(tid, n)
		if len(ddg.CountDeps(g, id)) > 0 {
			return id
		}
	}
	return 0
}

// TestParallelForwardMatchesSequential holds the sharded forward
// traversal to the one-shard (sequential) run's exact results (Lines,
// PCs, Nodes, Edges, truncation) on every workload, across worker
// counts, from each thread's oldest recorded instance and from a
// multi-start fan-out.
func TestParallelForwardMatchesSequential(t *testing.T) {
	for _, w := range prog.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			g := buildWorkloadGraph(t, w, 2)
			opts := Options{FollowControl: true}
			var starts []ddg.ID
			for _, tid := range g.Threads() {
				if id := oldestWithDeps(g, tid); id != 0 {
					starts = append(starts, id)
				}
			}
			if len(starts) == 0 {
				t.Skip("no recorded instances")
			}
			cases := [][]ddg.ID{starts}
			for _, id := range starts {
				cases = append(cases, []ddg.ID{id})
			}
			for ci, start := range cases {
				one := ParallelForward(g, w.Prog, start, opts, 1)
				for _, workers := range []int{2, 4} {
					par := ParallelForward(g, w.Prog, start, opts, workers)
					if fmt.Sprint(one.Lines) != fmt.Sprint(par.Lines) {
						t.Fatalf("case %d workers %d: lines diverged\none %v\npar %v",
							ci, workers, one.Lines, par.Lines)
					}
					if one.Nodes != par.Nodes || one.Edges != par.Edges {
						t.Fatalf("case %d workers %d: traversal diverged: %d/%d nodes, %d/%d edges",
							ci, workers, one.Nodes, par.Nodes, one.Edges, par.Edges)
					}
					if fmt.Sprint(mapKeys(one.PCs)) != fmt.Sprint(mapKeys(par.PCs)) {
						t.Fatalf("case %d workers %d: PC sets diverged", ci, workers)
					}
					if one.TruncatedAtWindow != par.TruncatedAtWindow {
						t.Fatalf("case %d workers %d: truncation flags diverged", ci, workers)
					}
				}
			}
		})
	}
}

// mapKeys returns the sorted keys of a PC set for comparison.
func mapKeys(m map[int32]bool) []int {
	out := make([]int, 0, len(m))
	for pc := range m {
		out = append(out, int(pc))
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestSliceCancellation: a pre-fired Done channel interrupts both
// traversals, returning a partial (possibly empty) slice with
// Interrupted set rather than hanging or completing.
func TestSliceCancellation(t *testing.T) {
	w := prog.PSum(4, 800, 7)
	g := buildWorkloadGraph(t, w, 5)
	done := make(chan struct{})
	close(done)
	opts := Options{FollowControl: true, Done: done}

	var crits []Criterion
	var starts []ddg.ID
	for _, tid := range g.Threads() {
		if id := newestWithDeps(g, tid); id != 0 {
			pc, ok := g.NodePC(id)
			if !ok {
				pc = -1
			}
			crits = append(crits, Criterion{ID: id, PC: pc})
		}
		if id := oldestWithDeps(g, tid); id != 0 {
			starts = append(starts, id)
		}
	}
	full := ParallelBackward(g, w.Prog, crits, Options{FollowControl: true}, 1)

	if full.Nodes < 600 {
		t.Fatalf("closure too small for a meaningful cancellation test: %d nodes", full.Nodes)
	}

	type run struct {
		name string
		// strict runs interrupt deterministically (one shard polls at
		// a fixed node count); with several shards each polls at its
		// own count and may finish first, so only termination is
		// asserted.
		strict bool
		f      func() *Slice
	}
	for _, r := range []run{
		{"backward/1", true, func() *Slice { return ParallelBackward(g, w.Prog, crits, opts, 1) }},
		{"backward/4", false, func() *Slice { return ParallelBackward(g, w.Prog, crits, opts, 4) }},
		{"forward/1", true, func() *Slice { return ParallelForward(g, w.Prog, starts, opts, 1) }},
		{"forward/4", false, func() *Slice { return ParallelForward(g, w.Prog, starts, opts, 4) }},
	} {
		start := time.Now()
		s := r.f()
		if r.strict {
			if !s.Interrupted {
				t.Errorf("%s: pre-cancelled traversal not marked Interrupted", r.name)
			}
			if s.Nodes >= full.Nodes {
				t.Errorf("%s: cancelled traversal visited the full closure (%d nodes)", r.name, s.Nodes)
			}
		}
		if el := time.Since(start); el > 30*time.Second {
			t.Errorf("%s: cancellation took %v", r.name, el)
		}
	}

	// A Done channel that never fires leaves results untouched.
	quiet := make(chan struct{})
	for _, workers := range shardCounts {
		q := ParallelBackward(g, w.Prog, crits, Options{FollowControl: true, Done: quiet}, workers)
		if q.Interrupted || q.Nodes != full.Nodes {
			t.Fatalf("workers %d: idle Done channel perturbed the traversal", workers)
		}
	}
}

// TestPreFiredDoneSmallClosureCompletes: a closure smaller than the
// poll interval never observes Done, so even a pre-fired Done yields
// the complete slice, not marked Interrupted (the query service
// caches only unmarked answers).
func TestPreFiredDoneSmallClosureCompletes(t *testing.T) {
	g, p := buildGraph(t, twoChains, []int64{1, 2}, ddg.ExtractorOpts{})
	crits := []Criterion{{ID: instanceOf(g, 0, 5), PC: 5}}
	done := make(chan struct{})
	close(done)
	for _, workers := range shardCounts {
		want := ParallelBackward(g, p, crits, Options{}, workers)
		if want.Nodes == 0 || want.Nodes > donePollMask {
			t.Fatalf("closure of %d nodes does not fit one poll interval", want.Nodes)
		}
		for i := 0; i < 50; i++ {
			got := ParallelBackward(g, p, crits, Options{Done: done}, workers)
			if got.Interrupted {
				t.Fatalf("workers %d: complete closure marked Interrupted", workers)
			}
			if fmt.Sprint(got.Lines) != fmt.Sprint(want.Lines) || got.Nodes != want.Nodes || got.Edges != want.Edges {
				t.Fatalf("workers %d: got %d/%d %v, want %d/%d %v", workers,
					got.Nodes, got.Edges, got.Lines, want.Nodes, want.Edges, want.Lines)
			}
		}
	}
}

// nodePCCancellingSource wraps a Source and closes done after a fixed
// number of NodePC calls, firing cancellation in the middle of
// ParallelForward's traversal (its expansion looks up each node's PC).
type nodePCCancellingSource struct {
	ddg.Source
	done  chan struct{}
	after int64
	calls atomic.Int64
}

func (c *nodePCCancellingSource) NodePC(id ddg.ID) (int32, bool) {
	if c.calls.Add(1) == c.after {
		close(c.done)
	}
	return c.Source.NodePC(id)
}

// TestUnmarkedSliceIsComplete: however far into a traversal Done
// fires, a slice not marked Interrupted is the complete closure — the
// query service caches exactly the unmarked answers.
func TestUnmarkedSliceIsComplete(t *testing.T) {
	w := prog.PSum(4, 800, 7)
	g := buildWorkloadGraph(t, w, 5)
	var crits []Criterion
	var starts []ddg.ID
	for _, tid := range g.Threads() {
		if id := newestWithDeps(g, tid); id != 0 {
			pc, _ := g.NodePC(id)
			crits = append(crits, Criterion{ID: id, PC: pc})
		}
		if id := oldestWithDeps(g, tid); id != 0 {
			starts = append(starts, id)
		}
	}
	opts := Options{FollowControl: true}
	for _, workers := range shardCounts {
		fullB := ParallelBackward(g, w.Prog, crits, opts, workers)
		fullF := ParallelForward(g, w.Prog, starts, opts, workers)
		for _, after := range []int64{1, 200, 255, 256, 257, 400, 700, 1000, 2000} {
			done := make(chan struct{})
			o := Options{FollowControl: true, Done: done}
			b := ParallelBackward(&cancellingSource{Source: g, done: done, after: after}, w.Prog, crits, o, workers)
			checkUnmarkedComplete(t, fmt.Sprintf("backward/%d after %d", workers, after), b, fullB)

			done = make(chan struct{})
			o.Done = done
			f := ParallelForward(&nodePCCancellingSource{Source: g, done: done, after: after}, w.Prog, starts, o, workers)
			checkUnmarkedComplete(t, fmt.Sprintf("forward/%d after %d", workers, after), f, fullF)
		}
	}
}

func checkUnmarkedComplete(t *testing.T, name string, got, full *Slice) {
	t.Helper()
	if got.Interrupted {
		return
	}
	if got.Nodes != full.Nodes || got.Edges != full.Edges || fmt.Sprint(got.Lines) != fmt.Sprint(full.Lines) {
		t.Fatalf("%s: unmarked slice is partial: %d/%d nodes, %d/%d edges",
			name, got.Nodes, full.Nodes, got.Edges, full.Edges)
	}
}

// stagedSource is a two-thread forward graph that stages the race
// between shards: thread 0 holds donePollMask+1 isolated start nodes,
// and thread 1 a three-node chain whose head x is the other start.
// x's PC lookup fires Done and then stalls until thread 0's shard has
// looked up its last node, and briefly after, so that shard polls
// Done (at its donePollMask+1'th node) and finishes the traversal
// while x is still being expanded.
type stagedSource struct {
	done, xEntered, lastSeen chan struct{}
}

func (s *stagedSource) Threads() []int { return []int{0, 1} }

func (s *stagedSource) Window(tid int) (lo, hi uint64) {
	if tid == 0 {
		return 1, donePollMask + 1
	}
	return 1, 3
}

func (s *stagedSource) DepsOf(id ddg.ID, yield func(ddg.Dep)) {
	if id.TID() == 1 && id.N() > 1 {
		yield(ddg.Dep{Use: id, UsePC: int32(id.N()), Def: ddg.MakeID(1, id.N()-1), DefPC: int32(id.N() - 1), Kind: ddg.Data})
	}
}

func (s *stagedSource) NodePC(id ddg.ID) (int32, bool) {
	switch id {
	case ddg.MakeID(1, 1):
		close(s.done)
		close(s.xEntered)
		select {
		case <-s.lastSeen:
			time.Sleep(20 * time.Millisecond)
		case <-time.After(5 * time.Second):
		}
	case ddg.MakeID(0, donePollMask+1):
		select {
		case <-s.xEntered:
		case <-time.After(5 * time.Second):
		}
		close(s.lastSeen)
	}
	return int32(id.N()), true
}

// TestForwardDoneMidExpansionStaysInterrupted: when one shard sees
// Done and finishes the traversal while another is expanding a node,
// that node's reverse edges are still followed (or left pending), so
// the slice is either complete or marked Interrupted — never a
// partial closure presented as complete.
func TestForwardDoneMidExpansionStaysInterrupted(t *testing.T) {
	starts := []ddg.ID{ddg.MakeID(1, 1)}
	for n := uint64(1); n <= donePollMask+1; n++ {
		starts = append(starts, ddg.MakeID(0, n))
	}
	full := ParallelForward(&stagedSource{
		done: make(chan struct{}), xEntered: make(chan struct{}), lastSeen: make(chan struct{}),
	}, nil, starts, Options{}, 4)
	if full.Nodes != donePollMask+4 || full.Edges != 2 {
		t.Fatalf("staged closure: %d nodes, %d edges; want %d, 2", full.Nodes, full.Edges, donePollMask+4)
	}
	for i := 0; i < 5; i++ {
		src := &stagedSource{done: make(chan struct{}), xEntered: make(chan struct{}), lastSeen: make(chan struct{})}
		got := ParallelForward(src, nil, starts, Options{Done: src.done}, 4)
		checkUnmarkedComplete(t, fmt.Sprintf("run %d", i), got, full)
	}
}

// cancellingSource wraps a Source and closes done after a fixed
// number of DepsOf calls, firing cancellation deterministically in the
// middle of ParallelForward's scan phase (or of ParallelBackward's
// traversal, whose expansion reads each node's dependences).
type cancellingSource struct {
	ddg.Source
	done  chan struct{}
	after int64
	calls atomic.Int64
}

func (c *cancellingSource) DepsOf(id ddg.ID, yield func(ddg.Dep)) {
	if c.calls.Add(1) == c.after {
		close(c.done)
	}
	c.Source.DepsOf(id, yield)
}

// TestParallelForwardStopsAfterCancelledScan pins the between-phases
// contract: when Done fires during the scan phase, ParallelForward
// returns an empty Interrupted slice instead of merging partial
// buckets (or a partial reverse map) and traversing them —
// edge-proportional work for a result the caller has already
// declined to wait for.
func TestParallelForwardStopsAfterCancelledScan(t *testing.T) {
	w := prog.PSum(4, 800, 7)
	g := buildWorkloadGraph(t, w, 5)
	var starts []ddg.ID
	for _, tid := range g.Threads() {
		if id := oldestWithDeps(g, tid); id != 0 {
			starts = append(starts, id)
		}
	}
	if len(starts) == 0 {
		t.Skip("no recorded instances")
	}
	for _, workers := range shardCounts {
		done := make(chan struct{})
		cg := &cancellingSource{Source: g, done: done, after: 512}
		s := ParallelForward(cg, w.Prog, starts, Options{FollowControl: true, Done: done}, workers)
		if !s.Interrupted {
			t.Fatalf("workers %d: mid-scan cancellation not marked Interrupted", workers)
		}
		if s.Nodes != 0 || s.Edges != 0 || len(s.PCs) != 0 {
			t.Fatalf("workers %d: cancelled-in-scan slice still traversed: %d nodes, %d edges",
				workers, s.Nodes, s.Edges)
		}
	}
}
