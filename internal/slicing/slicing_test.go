package slicing

import (
	"testing"

	"scaldift/internal/ddg"
	"scaldift/internal/isa"
	"scaldift/internal/vm"
)

// buildGraph runs a program under a full extractor.
func buildGraph(t *testing.T, text string, inputs []int64, opts ddg.ExtractorOpts) (*ddg.Full, *isa.Program) {
	t.Helper()
	p := isa.MustAssemble("t", text)
	m := vm.MustNew(p, vm.Config{})
	m.SetInput(0, inputs)
	sink := ddg.NewFullSink()
	m.AttachTool(ddg.NewExtractor(p, sink, opts))
	if res := m.Run(); res.Failed {
		t.Fatal(res.FailMsg)
	}
	return sink.G, p
}

// shardCounts are the worker counts every ddg.Full case runs at: the
// one-shard run and a sharded one.
var shardCounts = []int{1, 4}

// instanceOf returns the last dynamic instance of the instruction at
// static pc.
func instanceOf(g *ddg.Full, tid int, pc int32) ddg.ID {
	lo, hi := g.Window(tid)
	for n := hi; n >= lo && lo != 0; n-- {
		id := ddg.MakeID(tid, n)
		if p, ok := g.NodePC(id); ok && p == pc {
			return id
		}
	}
	return 0
}

const twoChains = `
    in r1, 0          ; line 2: input A
    in r2, 0          ; line 3: input B
    addi r3, r1, 1    ; line 4: chain A
    addi r4, r2, 1    ; line 5: chain B
    add r3, r3, r3    ; line 6: chain A
    out r3, 1         ; line 7: only chain A
    out r4, 1         ; line 8: only chain B
    halt
`

func TestBackwardDataSliceSeparatesChains(t *testing.T) {
	g, p := buildGraph(t, twoChains, []int64{1, 2}, ddg.ExtractorOpts{})
	outA := instanceOf(g, 0, 5) // out r3
	for _, workers := range shardCounts {
		s := ParallelBackward(g, p, []Criterion{{ID: outA, PC: 5}}, Options{}, workers)
		// Chain A lines: in r1 (2), addi r3 (4), add r3 (6), out (7).
		for _, want := range []int{2, 4, 6, 7} {
			if !s.Contains(want) {
				t.Fatalf("workers %d: slice %v missing line %d", workers, s.Lines, want)
			}
		}
		// Chain B must be absent.
		for _, bad := range []int{3, 5, 8} {
			if s.Contains(bad) {
				t.Fatalf("workers %d: slice %v wrongly includes line %d", workers, s.Lines, bad)
			}
		}
	}
}

const branchy = `
    in r1, 0          ; line 2
    movi r2, 0        ; line 3
    beqz r1, skip     ; line 4
    movi r2, 5        ; line 5
skip:
    out r2, 1         ; line 7
    halt
`

func TestControlDependenceInclusion(t *testing.T) {
	g, p := buildGraph(t, branchy, []int64{1}, ddg.ExtractorOpts{ControlDeps: true})
	out := instanceOf(g, 0, 4) // out r2 at pc 4
	for _, workers := range shardCounts {
		noCtrl := ParallelBackward(g, p, []Criterion{{ID: out, PC: 4}}, Options{}, workers)
		// Data-only: out <- movi r2,5 (no further deps: constant).
		if noCtrl.Contains(4) {
			t.Fatalf("workers %d: data slice %v should not include the branch", workers, noCtrl.Lines)
		}
		ctrl := ParallelBackward(g, p, []Criterion{{ID: out, PC: 4}}, Options{FollowControl: true}, workers)
		// With control deps: movi r2,5 is governed by beqz, which reads
		// r1 from the input.
		for _, want := range []int{2, 4, 5} {
			if !ctrl.Contains(want) {
				t.Fatalf("workers %d: full slice %v missing line %d", workers, ctrl.Lines, want)
			}
		}
		if ctrl.Edges <= noCtrl.Edges {
			t.Fatalf("workers %d: control slice should traverse more edges", workers)
		}
	}
}

func TestForwardSliceFromInput(t *testing.T) {
	g, p := buildGraph(t, twoChains, []int64{1, 2}, ddg.ExtractorOpts{})
	// Forward from the first IN instance (input A, node 0:1).
	for _, workers := range shardCounts {
		s := ParallelForward(g, p, []ddg.ID{ddg.MakeID(0, 1)}, Options{}, workers)
		for _, want := range []int{2, 4, 6, 7} {
			if !s.Contains(want) {
				t.Fatalf("workers %d: forward slice %v missing line %d", workers, s.Lines, want)
			}
		}
		for _, bad := range []int{3, 5, 8} {
			if s.Contains(bad) {
				t.Fatalf("workers %d: forward slice %v wrongly includes line %d", workers, s.Lines, bad)
			}
		}
	}
}

func TestBackwardAcrossThreads(t *testing.T) {
	g, p := buildGraph(t, `
.data 0, 0
    in r10, 0         ; line 3
    spawn r20, r10, child
    join r20
    load r3, r0, 1    ; line 6
    out r3, 1         ; line 7
    halt
child:
    addi r2, r1, 1    ; line 10
    store r0, r2, 1   ; line 11
    halt
`, []int64{5}, ddg.ExtractorOpts{})
	out := instanceOf(g, 0, 4)
	for _, workers := range shardCounts {
		s := ParallelBackward(g, p, []Criterion{{ID: out, PC: 4}}, Options{}, workers)
		for _, want := range []int{3, 10, 11, 6, 7} {
			if !s.Contains(want) {
				t.Fatalf("workers %d: cross-thread slice %v missing line %d", workers, s.Lines, want)
			}
		}
	}
}

func TestMaxNodesBounds(t *testing.T) {
	g, p := buildGraph(t, `
    movi r1, 0
loop:
    addi r1, r1, 1
    movi r2, 5000
    blt r1, r2, loop
    out r1, 1
    halt
`, nil, ddg.ExtractorOpts{})
	out := instanceOf(g, 0, 4)
	for _, workers := range shardCounts {
		s := ParallelBackward(g, p, []Criterion{{ID: out, PC: 4}}, Options{MaxNodes: 10}, workers)
		if s.Nodes > 10 {
			t.Fatalf("workers %d: visited %d nodes with MaxNodes=10", workers, s.Nodes)
		}
	}
}

func TestAntiDependenceOption(t *testing.T) {
	g, p := buildGraph(t, `
    movi r1, 1        ; line 2
    store r0, r1, 9   ; line 3 write
    load r2, r0, 9    ; line 4 read
    movi r3, 2        ; line 5
    store r0, r3, 9   ; line 6 write (WAR with 4, WAW with 3)
    out r2, 1
    halt
`, nil, ddg.ExtractorOpts{WARWAW: true})
	w2 := instanceOf(g, 0, 4) // second store
	for _, workers := range shardCounts {
		plain := ParallelBackward(g, p, []Criterion{{ID: w2, PC: 4}}, Options{}, workers)
		if plain.Contains(4) {
			t.Fatalf("workers %d: plain slice %v should not include the read", workers, plain.Lines)
		}
		anti := ParallelBackward(g, p, []Criterion{{ID: w2, PC: 4}}, Options{FollowAnti: true}, workers)
		if !anti.Contains(4) || !anti.Contains(3) {
			t.Fatalf("workers %d: anti slice %v missing WAR/WAW statements", workers, anti.Lines)
		}
	}
}

func TestWindowTruncation(t *testing.T) {
	// A compact ring small enough to evict early history: slicing
	// reports truncation. A lone Compact is not safe for concurrent
	// reads, so this runs one shard only.
	p := isa.MustAssemble("t", `
    in r1, 0
    movi r3, 0
loop:
    add r1, r1, r1
    addi r3, r3, 1
    movi r4, 50000
    blt r3, r4, loop
    out r1, 1
    halt
`)
	m := vm.MustNew(p, vm.Config{})
	m.SetInput(0, []int64{1})
	c := ddg.NewCompact(4 * 1024)
	sink := &compactSink{c: c}
	m.AttachTool(ddg.NewExtractor(p, sink, ddg.ExtractorOpts{}))
	if res := m.Run(); res.Failed {
		t.Fatal(res.FailMsg)
	}
	_, hi := c.Window(0)
	crit := ddg.MakeID(0, hi)
	pc, _ := c.NodePC(crit)
	s := ParallelBackward(c, p, []Criterion{{ID: crit, PC: pc}}, Options{}, 1)
	if !s.TruncatedAtWindow {
		t.Fatal("expected window truncation")
	}
}

type compactSink struct{ c *ddg.Compact }

func (s *compactSink) Node(ddg.ID, int32, *vm.Event) {}
func (s *compactSink) Deps(id ddg.ID, pc int32, deps []ddg.Dep) {
	if len(deps) > 0 {
		s.c.Append(id, pc, deps, 0)
	}
}
