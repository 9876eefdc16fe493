package slicing

import (
	"scaldift/internal/ddg"
	"scaldift/internal/isa"
)

// ParallelBackward computes the backward dynamic slice of the
// criteria on the sharded engine. Each shard drains its own thread's
// frontier depth-first and hands cross-thread edges to the owning
// thread's shard, so the long per-thread dependence chains that
// dominate real traces advance in parallel instead of lock-stepping
// through a global frontier; the sharding matches the layouts
// underneath (store.Reader segments, ddg.Sharded), giving each worker
// an uncontended chunk cache.
//
// workers <= 1 runs one shard on the caller's goroutine and is safe
// over any source. Otherwise one goroutine runs per thread shard (the
// Go scheduler multiplexes them over the machine, so workers is a
// switch, not a pool size), and src (with its DepsOfHinted) must be
// safe for concurrent reads: store.Reader and ddg.Full are; a lone
// ddg.Compact and ontrac.Reader over one are NOT (single-goroutine
// decode cache).
//
// Over an exact source every shard count gives the same PCs, Lines,
// Nodes, Edges, and TruncatedAtWindow (the closure is
// order-independent). Two caveats: a bounded traversal (MaxNodes)
// over several shards may visit a few nodes past the bound; and over
// a HintedSource whose reconstruction over-approximates (ontrac O2),
// a node's PC hint depends on which edge discovers it first, so
// different shard counts can reconstruct marginally different edge
// sets — all valid over-approximations of the slice.
func ParallelBackward(src ddg.Source, prog *isa.Program, crits []Criterion, opts Options, workers int) *Slice {
	hinted, _ := src.(HintedSource)
	tids := src.Threads()
	e := newEngine(tids, opts, workers)

	// Windows are constant during a traversal: snapshot them so the
	// per-node window check never touches the source (whose Window
	// may lock the very thread state another worker is decoding).
	// Absent tids have no records — lo = 0, like Source.Window.
	winLo := make(map[int]uint64, len(tids))
	for _, tid := range tids {
		lo, _ := src.Window(tid)
		winLo[tid] = lo
	}
	// Window admission: a node evicted from the source's window, or
	// one a plain source holds no records for, reaches the slice as
	// a statement through its incoming edge but is not expanded.
	e.gate = func(s *shard, id ddg.ID, pc int32) bool {
		lo := winLo[id.TID()]
		evicted := lo > 0 && id.N() < lo
		if !evicted && (lo > 0 || hinted != nil) {
			return true
		}
		if evicted {
			s.truncated = true
		}
		if pc >= 0 {
			s.extraPCs[pc] = true
		}
		return false
	}

	starts := make([]item, len(crits))
	for i, c := range crits {
		starts[i] = item{id: c.ID, pc: c.PC}
	}
	return e.traverse(starts, prog, func(s *shard) func(item) bool {
		yield := func(d ddg.Dep) {
			if !opts.follows(d.Kind) {
				return
			}
			s.edges++
			s.pcs[d.DefPC] = true
			e.push(s, d.Def, d.DefPC)
		}
		return func(it item) bool {
			if it.pc >= 0 {
				s.pcs[it.pc] = true
			}
			if hinted != nil {
				hinted.DepsOfHinted(it.id, it.pc, yield)
			} else {
				src.DepsOf(it.id, yield)
			}
			return true
		}
	})
}
