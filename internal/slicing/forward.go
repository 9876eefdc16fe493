package slicing

import (
	"sync"
	"sync/atomic"

	"scaldift/internal/ddg"
	"scaldift/internal/isa"
)

// ParallelForward computes the forward dynamic slice (all instances
// affected by the start instances) on the sharded engine, in two
// phases:
//
//  1. reverse adjacency, built by one scan of every retained window.
//     With several shards, one scanner per trace thread buckets the
//     edges it finds by the def's owning shard, and each shard then
//     merges its buckets into its own reverse map; with one shard the
//     scan runs serially straight into that shard's map.
//  2. the closure traversal, in which a shard owns exactly the
//     reverse edges of its own thread's defs.
//
// workers <= 1 runs one shard on the caller's goroutine and is safe
// over any source. Otherwise the shard count follows the trace's
// threads (the Go scheduler multiplexes), and g (including its
// NodePC) must be safe for concurrent reads: store.Reader, ddg.Full,
// and ddg.Sharded are; a lone ddg.Compact is NOT.
//
// Every shard count gives the same PCs, Lines, Nodes, and Edges (the
// closure is order-independent), except that a bounded traversal
// (MaxNodes) over several shards may visit a few nodes past the
// bound. A cancellation during phase 1 returns an empty Interrupted
// slice rather than traversing partial reverse edges.
//
// Over a source with elided records (ontrac.Reader under O1/O2), the
// forward slice under-approximates: reconstruction needs each node's
// static PC from traversal context, which flows naturally along
// backward edges but not forward, so flow THROUGH a fully elided
// instance is not followed. Use the Full graph (or an unoptimized
// trace) when the exact forward closure matters. The paper computes
// the forward slice of the inputs online instead (ONTRAC T2); this
// offline version exists for fault-location experiments and
// cross-checks.
func ParallelForward(g ddg.Source, prog *isa.Program, start []ddg.ID, opts Options, workers int) *Slice {
	tids := g.Threads()
	e := newEngine(tids, opts, workers)
	for _, s := range e.all {
		s.rev = make(map[ddg.ID][]ddg.Dep)
	}
	if !e.buildReverse(g, tids) || opts.doneFired() {
		// Partial reverse edges: traversing them would burn
		// edge-proportional work only to produce a slice the caller
		// already declined to wait for.
		res := &Slice{PCs: make(map[int32]bool), Interrupted: true}
		res.Lines = pcsToLines(prog, res.PCs)
		return res
	}

	starts := make([]item, len(start))
	for i, id := range start {
		starts[i] = item{id: id, pc: -1}
	}
	return e.traverse(starts, prog, func(s *shard) func(item) bool {
		return func(it item) bool {
			if pc, ok := g.NodePC(it.id); ok {
				s.pcs[pc] = true
			}
			if e.done.Load() {
				return false // finished elsewhere: follow no more edges
			}
			for _, d := range s.rev[it.id] {
				s.edges++
				s.pcs[d.UsePC] = true
				e.push(s, d.Use, d.UsePC)
			}
			return true
		}
	})
}

// buildReverse fills every shard's reverse map from the source's
// retained windows, reporting false if Options.Done cut it short.
func (e *engine) buildReverse(g ddg.Source, tids []int) bool {
	if len(e.all) == 1 {
		rev := e.catchAll.rev
		for _, tid := range tids {
			if !e.scan(g, tid, func(d ddg.Dep) { rev[d.Def] = append(rev[d.Def], d) }) {
				return false
			}
		}
		return true
	}

	// Per-thread scans, each filling private buckets indexed by the
	// def's owning shard, then one merger per shard (no shared map).
	var interrupted atomic.Bool
	buckets := make([][][]ddg.Dep, len(tids))
	var wg sync.WaitGroup
	for i, tid := range tids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([][]ddg.Dep, len(e.all))
			if !e.scan(g, tid, func(d ddg.Dep) {
				j := e.shardOf(d.Def.TID()).idx
				out[j] = append(out[j], d)
			}) {
				interrupted.Store(true)
			}
			buckets[i] = out
		}()
	}
	wg.Wait()
	if interrupted.Load() {
		return false
	}
	for _, s := range e.all {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, b := range buckets {
				for i, d := range b[s.idx] {
					if i&donePollMask == 0 && e.opts.doneFired() {
						interrupted.Store(true)
						return
					}
					s.rev[d.Def] = append(s.rev[d.Def], d)
				}
			}
		}()
	}
	wg.Wait()
	return !interrupted.Load()
}

// scan yields every followed edge recorded in thread tid's retained
// window, polling Options.Done every donePollMask+1 instances; it
// reports false if Done fired.
func (e *engine) scan(g ddg.Source, tid int, add func(ddg.Dep)) bool {
	yield := func(d ddg.Dep) {
		if e.opts.follows(d.Kind) {
			add(d)
		}
	}
	lo, hi := g.Window(tid)
	for n := lo; n <= hi && lo != 0; n++ {
		if (n-lo)&donePollMask == 0 && e.opts.doneFired() {
			return false
		}
		g.DepsOf(ddg.MakeID(tid, n), yield)
	}
	return true
}
