package slicing

import (
	"sync"
	"sync/atomic"
	"time"

	"scaldift/internal/ddg"
	"scaldift/internal/isa"
)

// engine is the sharded closure frontier both slicing directions
// share. Each shard owns one trace thread's nodes: its visited set,
// a locked queue other shards hand cross-thread edges to, and a
// private continuation stack for same-thread edges, so a thread's
// own dependence chain walks at sequential speed with no queue
// round-trip. A catch-all shard (tid -1) owns the threads the source
// never recorded (stored cross-thread edges may point at them); in a
// one-shard run it is the only shard and owns every thread.
//
// A direction plugs in two things: an expansion (traverse's
// newExpand) that walks one node's edges and hands each neighbour to
// push, and an optional gate that decides, under the owning shard's
// lock, whether a newly visited node is expanded. An expansion either
// walks every edge of its node or reports that it stopped short (the
// traversal finished elsewhere); a node cut short stays pending, so
// pending reaching zero is proof that the closure is complete, which
// is what keeps a cut-short slice marked Interrupted.
type engine struct {
	opts     Options
	byTID    map[int]*shard // per-thread shards; nil in a one-shard run
	catchAll *shard
	all      []*shard // catchAll first; index = shard.idx

	// gate, when non-nil, runs under the owning shard's lock on each
	// newly visited node and reports whether it should be expanded.
	gate func(s *shard, id ddg.ID, pc int32) bool

	pending     atomic.Int64 // admitted-but-unprocessed nodes
	nodes       atomic.Int64 // processed nodes (MaxNodes)
	done        atomic.Bool
	interrupted atomic.Bool // a shard saw Options.Done fire
}

// item is one frontier entry: a node and its static PC (-1 unknown).
type item struct {
	id ddg.ID
	pc int32
}

// shard is one thread's frontier, visited set, and result tallies.
// queue, visited, extraPCs, and truncated are guarded by mu (other
// shards' workers push here); rev is immutable once traversal starts;
// local, nodes, edges, pcs, and busy belong to the shard's worker.
type shard struct {
	tid     int  // -1: the catch-all shard
	ownsAll bool // one-shard run: owns every thread
	idx     int

	mu        sync.Mutex
	cond      *sync.Cond
	queue     []item
	visited   map[ddg.ID]bool
	extraPCs  map[int32]bool // statements reached but not expanded
	truncated bool

	rev map[ddg.ID][]ddg.Dep // forward: reverse edges of this shard's defs

	local []item
	nodes int
	edges int
	pcs   map[int32]bool
	busy  time.Duration
}

// newEngine builds the shards: one per thread in tids when
// workers > 1, otherwise only the catch-all shard, owning them all.
func newEngine(tids []int, opts Options, workers int) *engine {
	e := &engine{opts: opts}
	e.catchAll = e.addShard(-1)
	if workers <= 1 {
		e.catchAll.ownsAll = true
		return e
	}
	e.byTID = make(map[int]*shard, len(tids))
	for _, tid := range tids {
		if _, ok := e.byTID[tid]; !ok {
			e.byTID[tid] = e.addShard(tid)
		}
	}
	return e
}

func (e *engine) addShard(tid int) *shard {
	s := &shard{
		tid:      tid,
		idx:      len(e.all),
		visited:  make(map[ddg.ID]bool),
		extraPCs: make(map[int32]bool),
		pcs:      make(map[int32]bool),
	}
	s.cond = sync.NewCond(&s.mu)
	e.all = append(e.all, s)
	return s
}

// shardOf returns the shard owning thread tid.
func (e *engine) shardOf(tid int) *shard {
	if s, ok := e.byTID[tid]; ok {
		return s
	}
	return e.catchAll
}

// admitLocked dedups id in its owning shard s (whose lock the caller
// holds), then applies the gate; true means the node is pending and
// the caller must queue it for expansion.
func (e *engine) admitLocked(s *shard, id ddg.ID, pc int32) bool {
	if s.visited[id] {
		return false
	}
	s.visited[id] = true
	if e.gate != nil && !e.gate(s, id, pc) {
		return false
	}
	e.pending.Add(1)
	return true
}

// push hands a node reached from shard s's worker to its owner: the
// worker's own continuation stack when s owns the node's thread, the
// owning shard's queue otherwise. The zero id ("no node") is dropped.
func (e *engine) push(s *shard, id ddg.ID, pc int32) {
	if id == 0 {
		return
	}
	if s.ownsAll || id.TID() == s.tid {
		s.mu.Lock()
		ok := e.admitLocked(s, id, pc)
		s.mu.Unlock()
		if ok {
			s.local = append(s.local, item{id: id, pc: pc})
		}
		return
	}
	e.enqueue(id, pc)
}

// enqueue admits a node into its owning shard's queue (start points
// and cross-shard edges).
func (e *engine) enqueue(id ddg.ID, pc int32) {
	if id == 0 {
		return
	}
	s := e.shardOf(id.TID())
	s.mu.Lock()
	if e.admitLocked(s, id, pc) {
		s.queue = append(s.queue, item{id: id, pc: pc})
		s.cond.Signal()
	}
	s.mu.Unlock()
}

// finish ends the traversal and wakes every blocked worker.
func (e *engine) finish() {
	if e.done.CompareAndSwap(false, true) {
		for _, s := range e.all {
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		}
	}
}

// traverse admits the start points, drains every shard, and merges
// the result. newExpand builds one shard's expansion: a function that
// walks one node's edges, tallies them on the shard, pushes each
// neighbour, and reports false if it stopped before the last edge. A one-shard run drains on the caller's goroutine; several
// shards run one goroutine each (the Go scheduler multiplexes them).
func (e *engine) traverse(starts []item, prog *isa.Program, newExpand func(*shard) func(item) bool) *Slice {
	for _, it := range starts {
		e.enqueue(it.id, it.pc)
	}
	switch {
	case e.pending.Load() == 0:
		// Every start point was zero or gated out: nothing to run.
	case len(e.all) == 1:
		e.drain(e.catchAll, newExpand(e.catchAll))
	default:
		var wg sync.WaitGroup
		for _, s := range e.all {
			expand := newExpand(s)
			wg.Add(1)
			go func() {
				defer wg.Done()
				e.drain(s, expand)
			}()
		}
		wg.Wait()
	}
	return e.merge(prog)
}

// drain is a shard's worker loop: wait on the shard's cond for queued
// items (or the finish broadcast), swap the queued batch out under the
// lock, and process each item, draining the local continuation stack
// depth-first between items. busy accumulates processing time, waits
// excluded.
func (e *engine) drain(s *shard, expand func(item) bool) {
	var batch []item
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !e.done.Load() {
			s.cond.Wait()
		}
		if len(s.queue) == 0 {
			s.mu.Unlock()
			return
		}
		batch, s.queue = s.queue, batch[:0]
		s.mu.Unlock()

		start := time.Now()
		ok := true
		for _, it := range batch {
			if ok = e.process(s, it, expand); !ok {
				break
			}
			for ok && len(s.local) > 0 {
				next := s.local[len(s.local)-1]
				s.local = s.local[:len(s.local)-1]
				ok = e.process(s, next, expand)
			}
		}
		s.busy += time.Since(start)
		if !ok {
			return
		}
	}
}

// process expands one node, then settles the traversal's accounting:
// the MaxNodes bound, completion when nothing is left pending, and,
// every donePollMask+1 nodes on this shard, cancellation. It reports
// whether the traversal goes on.
func (e *engine) process(s *shard, it item, expand func(item) bool) bool {
	s.nodes++
	if !expand(it) {
		return false // cut short: the node stays pending
	}
	if e.opts.MaxNodes > 0 && e.nodes.Add(1) >= int64(e.opts.MaxNodes) {
		e.finish()
	}
	if e.pending.Add(-1) == 0 {
		e.finish()
	} else if s.nodes&donePollMask == 0 && e.opts.doneFired() {
		e.interrupted.Store(true)
		e.finish()
	}
	return !e.done.Load()
}

// merge folds the shards into a Slice (single goroutine, after every
// worker has returned). Interrupted requires both a shard seeing Done
// and admitted nodes left unexpanded: a closure that completed while
// Done fired is complete.
func (e *engine) merge(prog *isa.Program) *Slice {
	res := &Slice{
		PCs:         make(map[int32]bool),
		ShardBusy:   make(map[int]time.Duration),
		Interrupted: e.interrupted.Load() && e.pending.Load() > 0,
	}
	for _, s := range e.all {
		res.Nodes += s.nodes
		res.Edges += s.edges
		if s.truncated {
			res.TruncatedAtWindow = true
		}
		for pc := range s.pcs {
			res.PCs[pc] = true
		}
		for pc := range s.extraPCs {
			res.PCs[pc] = true
		}
		if s.busy > 0 {
			res.ShardBusy[s.tid] = s.busy
		}
	}
	res.Lines = pcsToLines(prog, res.PCs)
	return res
}
