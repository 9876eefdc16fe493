// Package slicing computes dynamic slices over dynamic dependence
// graphs (§2.1, §3.1): the backward closure of data (and optionally
// control) dependences from a slicing criterion, or the forward
// closure of the instances a start point affects, reported as a set
// of statements. It consumes any ddg.Source — the full offline graph,
// the compact store, or ONTRAC's reconstructing reader (whose elided
// edges are resolved through the HintedSource extension).
//
// Both directions run on one traversal engine (engine.go), the
// per-thread worker design of ONTRAC §3: the closure frontier is
// sharded by trace thread, each shard drains its own thread's
// dependence chains depth-first, and only cross-thread edges move
// between shards. ParallelBackward (backward.go) supplies the
// backward expansion, ParallelForward (forward.go) the forward one.
// With workers <= 1 a single shard owns every thread and drains on
// the caller's goroutine, which is the sequential slicer and the only
// mode safe over sources that do not support concurrent reads.
package slicing

import (
	"sort"
	"time"

	"scaldift/internal/ddg"
	"scaldift/internal/isa"
)

// HintedSource is implemented by sources that can reconstruct elided
// dependences given the node's static PC from traversal context
// (ontrac.Reader). Plain sources are used as-is.
type HintedSource interface {
	ddg.Source
	DepsOfHinted(id ddg.ID, pcHint int32, yield func(ddg.Dep))
}

// Criterion is a slicing start point: an instruction instance and its
// static PC (the PC lets reconstruction work even when the instance
// itself stored no record).
type Criterion struct {
	ID ddg.ID
	PC int32
}

// Options tunes the traversal.
type Options struct {
	// FollowControl includes dynamic control dependences, giving the
	// full (data+control) dynamic slice. Without it the slice is the
	// data slice.
	FollowControl bool
	// FollowAnti includes WAR/WAW edges (race-detection slicing).
	FollowAnti bool
	// MaxNodes bounds the traversal (0 = unbounded). It is enforced
	// cooperatively: with several shards a bounded traversal may
	// visit a few nodes past the bound.
	MaxNodes int
	// Done, when non-nil, cancels the traversal cooperatively once it
	// becomes readable (a context's Done channel: per-query deadlines
	// in the trace query service). Each shard polls it every
	// donePollMask+1 nodes, so a closure smaller than that completes.
	// A traversal that stops early returns the valid partial slice
	// computed so far with Interrupted set.
	Done <-chan struct{}
}

// doneFired reports whether o.Done is readable. Checked every few
// hundred nodes, not per edge: a select per edge would tax the hot
// traversal loops.
func (o *Options) doneFired() bool {
	if o.Done == nil {
		return false
	}
	select {
	case <-o.Done:
		return true
	default:
		return false
	}
}

// donePollMask throttles doneFired checks to every 256th node.
const donePollMask = 0xff

// follows reports whether the traversal crosses an edge of kind k.
func (o *Options) follows(k ddg.Kind) bool {
	switch k {
	case ddg.Control:
		return o.FollowControl
	case ddg.WAR, ddg.WAW:
		return o.FollowAnti
	}
	return true
}

// Slice is the result: the statement-level slice plus traversal
// metadata.
type Slice struct {
	// PCs is the set of static instruction indices in the slice.
	PCs map[int32]bool
	// Lines is the sorted set of statement ids (source lines).
	Lines []int
	// Nodes is the number of dynamic instances visited.
	Nodes int
	// Edges is the number of dependence edges traversed.
	Edges int
	// TruncatedAtWindow reports that the traversal reached instances
	// evicted from a bounded buffer: the fault may predate the
	// retained execution window (§2.1's window-length concern).
	TruncatedAtWindow bool
	// Interrupted reports that Options.Done fired and the traversal
	// stopped before its closure was complete: the slice is a valid
	// under-approximation, like a window truncation. A traversal that
	// completes is never marked, however late Done fires.
	Interrupted bool
	// ShardBusy maps thread id to that shard's processing time, waits
	// excluded; -1 is the shard for threads the source never
	// recorded or, with one shard, the single entry covering all
	// threads. The max entry is the traversal's critical path on
	// fully parallel hardware; the sum approximates one core's
	// sequential cost.
	ShardBusy map[int]time.Duration
}

// Contains reports whether the slice includes the statement id.
func (s *Slice) Contains(line int) bool {
	i := sort.SearchInts(s.Lines, line)
	return i < len(s.Lines) && s.Lines[i] == line
}

// pcsToLines maps a PC set to a sorted, deduplicated line set. A nil
// program yields nil: the query service serves traces it has no
// program for as PC sets only.
func pcsToLines(prog *isa.Program, pcs map[int32]bool) []int {
	if prog == nil {
		return nil
	}
	seen := make(map[int]bool, len(pcs))
	for pc := range pcs {
		if line := prog.LineOf(int(pc)); line >= 0 {
			seen[line] = true
		}
	}
	lines := make([]int, 0, len(seen))
	for l := range seen {
		lines = append(lines, l)
	}
	sort.Ints(lines)
	return lines
}
