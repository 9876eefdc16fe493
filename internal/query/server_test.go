package query

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"scaldift/internal/ddg"
	"scaldift/internal/ontrac"
	"scaldift/internal/prog"
	"scaldift/internal/store"
)

// newService records one workload and serves it; returns the client,
// the trace id, the registry, and the server.
func newService(t *testing.T, w *prog.Workload, attach bool, sopts ServerOptions) (*Client, string, *Registry, *Server) {
	t.Helper()
	opts := ontrac.StaticOptions()
	root := t.TempDir()
	dir := recordTrace(t, root, w, opts, 1)
	reg := NewRegistry([]string{root}, RegistryOptions{CacheChunks: 4})
	if _, err := reg.Refresh(); err != nil {
		t.Fatal(err)
	}
	id := filepath.Base(dir)
	if attach {
		if err := reg.AttachProgram(id, w.Prog, opts); err != nil {
			t.Fatal(err)
		}
	}
	s := NewServer(reg, sopts)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return NewClient(srv.URL, srv.Client()), id, reg, s
}

// TestRegistryRefreshPicksUpClosedTraces: only directories whose
// writer has closed appear, and a later refresh publishes new ones
// without a restart.
func TestRegistryRefreshPicksUpClosedTraces(t *testing.T) {
	w := prog.Compress(200, 1)
	cl, _, _, _ := newService(t, w, false, ServerOptions{})
	ctx := context.Background()

	traces, err := cl.Traces(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 {
		t.Fatalf("expected 1 trace, got %d", len(traces))
	}
	if len(traces[0].Threads) == 0 || traces[0].Chunks == 0 {
		t.Fatalf("trace info incomplete: %+v", traces[0])
	}

	// A store still being written must NOT register...
	root2 := t.TempDir()
	reg2 := NewRegistry([]string{root2}, RegistryOptions{})
	wr, err := store.Create(store.Options{Dir: filepath.Join(root2, "live")})
	if err != nil {
		t.Fatal(err)
	}
	if added, _ := reg2.Refresh(); len(added) != 0 {
		t.Fatalf("unclosed store registered: %v", added)
	}
	// ...until its writer closes.
	if err := wr.Close(); err != nil {
		t.Fatal(err)
	}
	added, err := reg2.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 1 || added[0] != "live" {
		t.Fatalf("closed store not picked up: %v", added)
	}
	// Refresh is idempotent.
	if added, _ := reg2.Refresh(); len(added) != 0 {
		t.Fatalf("second refresh re-registered: %v", added)
	}
}

// TestServerRefreshEndpoint exercises pickup over HTTP: record a
// second trace after the server is live, POST /v1/refresh, slice the
// newcomer, and require the OnRefresh hook to have seen it (the
// daemon attaches programs there — both discovery paths must fire
// it).
func TestServerRefreshEndpoint(t *testing.T) {
	w := prog.Compress(200, 1)
	var hookMu sync.Mutex
	var hooked []string
	cl, _, reg, _ := newService(t, w, false, ServerOptions{
		OnRefresh: func(added []string) {
			hookMu.Lock()
			hooked = append(hooked, added...)
			hookMu.Unlock()
		},
	})
	ctx := context.Background()

	w2 := prog.MatMul(4, 3)
	dir2 := recordTrace(t, reg.roots[0], w2, ontrac.StaticOptions(), 2)
	resp, err := cl.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	id2 := filepath.Base(dir2)
	if len(resp.Added) != 1 || resp.Added[0] != id2 || resp.Traces != 2 {
		t.Fatalf("refresh: %+v", resp)
	}
	hookMu.Lock()
	hookedNow := append([]string(nil), hooked...)
	hookMu.Unlock()
	if len(hookedNow) != 1 || hookedNow[0] != id2 {
		t.Fatalf("OnRefresh hook saw %v, want [%s]", hookedNow, id2)
	}
	sl, err := cl.Slice(ctx, &SliceRequest{
		Trace: id2, Direction: DirBackward,
		Criteria: []Criterion{{TID: 0}}, FollowControl: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sl.Nodes == 0 || len(sl.PCs) == 0 {
		t.Fatalf("empty slice from refreshed trace: %+v", sl)
	}
}

// TestServerErrorPaths covers the client-visible failure modes.
func TestServerErrorPaths(t *testing.T) {
	w := prog.Compress(150, 1)
	cl, id, _, _ := newService(t, w, false, ServerOptions{})
	ctx := context.Background()

	cases := []struct {
		name string
		req  *SliceRequest
		frag string
	}{
		{"unknown trace", &SliceRequest{Trace: "nope", Direction: DirBackward,
			Criteria: []Criterion{{TID: 0}}}, "unknown trace"},
		{"no records", &SliceRequest{Trace: id, Direction: DirBackward,
			Criteria: []Criterion{{TID: 77}}}, "no recorded instances"},
	}
	for _, c := range cases {
		if _, err := cl.Slice(ctx, c.req); err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Fatalf("%s: error %v, want %q", c.name, err, c.frag)
		}
	}

	// Client-side validation rejects malformed requests before any
	// network I/O.
	if _, err := cl.Slice(ctx, &SliceRequest{Trace: id, Direction: "sideways",
		Criteria: []Criterion{{TID: 0}}}); err == nil {
		t.Fatal("bad direction accepted")
	}
	if _, err := cl.Slice(ctx, &SliceRequest{Trace: id, Direction: DirBackward}); err == nil {
		t.Fatal("empty criteria accepted")
	}

	// Provenance without an attached program is a clean 422.
	if _, err := cl.Provenance(ctx, &ProvenanceRequest{Trace: id,
		Criteria: []Criterion{{TID: 0}}}); err == nil ||
		!strings.Contains(err.Error(), "program") {
		t.Fatalf("provenance without program: %v", err)
	}
}

// TestServerQueryLimit: with the semaphore already full, a query
// whose deadline expires in line is rejected 503 and counted.
func TestServerQueryLimit(t *testing.T) {
	w := prog.Compress(150, 1)
	cl, id, _, s := newService(t, w, false, ServerOptions{MaxConcurrent: 1})
	ctx := context.Background()

	s.sem <- struct{}{} // occupy the only slot
	_, err := cl.Slice(ctx, &SliceRequest{
		Trace: id, Direction: DirBackward,
		Criteria:       []Criterion{{TID: 0}},
		DeadlineMillis: 50,
	})
	if err == nil || !strings.Contains(err.Error(), "query limit") {
		t.Fatalf("full queue: %v", err)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected != 1 || st.MaxConcurrent != 1 {
		t.Fatalf("stats after rejection: %+v", st)
	}
	<-s.sem
	if _, err := cl.Slice(ctx, &SliceRequest{Trace: id, Direction: DirBackward,
		Criteria: []Criterion{{TID: 0}}, FollowControl: true}); err != nil {
		t.Fatalf("freed queue still failing: %v", err)
	}
}

// TestServerBudget: a starved per-query budget truncates the served
// slice and says so; the server-wide default applies when the request
// names none.
func TestServerBudget(t *testing.T) {
	w := prog.Compress(1500, 1)
	cl, id, _, _ := newService(t, w, false, ServerOptions{BudgetChunkLoads: 1})
	ctx := context.Background()

	full, err := cl.Slice(ctx, &SliceRequest{
		Trace: id, Direction: DirBackward,
		Criteria: []Criterion{{TID: 0}}, FollowControl: true,
		BudgetChunkLoads: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if full.BudgetExhausted || full.Nodes == 0 {
		t.Fatalf("roomy budget: %+v", full)
	}
	if full.ChunkLoads == 0 {
		t.Fatal("no chunk loads counted")
	}

	// No budget in the request: the server default (1 load) bites.
	starved, err := cl.Slice(ctx, &SliceRequest{
		Trace: id, Direction: DirBackward,
		Criteria: []Criterion{{TID: 0}}, FollowControl: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !starved.BudgetExhausted {
		t.Fatal("server-default budget never exhausted")
	}
	if starved.Nodes >= full.Nodes {
		t.Fatalf("starved slice (%d nodes) not smaller than full (%d)", starved.Nodes, full.Nodes)
	}
}

// TestServerConveniencesAndRaw: N=0 resolves to the newest instance,
// an omitted PC resolves from the stored record, and Raw strips O1
// reconstruction (a strictly-not-larger slice on an optimized trace).
func TestServerConveniencesAndRaw(t *testing.T) {
	w := prog.Compress(400, 1)
	cl, id, reg, _ := newService(t, w, true, ServerOptions{})
	ctx := context.Background()

	tr, _ := reg.Get(id)
	_, hi := tr.Window(0)
	pc, ok := tr.reader.NodePC(ddg.MakeID(0, hi))
	if !ok {
		t.Fatal("window top stored no record")
	}
	implicit, err := cl.Slice(ctx, &SliceRequest{Trace: id, Direction: DirBackward,
		Criteria: []Criterion{{TID: 0}}, FollowControl: true})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := cl.Slice(ctx, &SliceRequest{Trace: id, Direction: DirBackward,
		Criteria: []Criterion{{TID: 0, N: hi, PC: &pc}}, FollowControl: true})
	if err != nil {
		t.Fatal(err)
	}
	if implicit.Nodes != explicit.Nodes || implicit.Edges != explicit.Edges {
		t.Fatalf("implicit criterion diverged: %d/%d vs %d/%d",
			implicit.Nodes, implicit.Edges, explicit.Nodes, explicit.Edges)
	}
	if len(implicit.Lines) == 0 {
		t.Fatal("attached program produced no lines")
	}

	raw, err := cl.Slice(ctx, &SliceRequest{Trace: id, Direction: DirBackward,
		Criteria: []Criterion{{TID: 0}}, FollowControl: true, Raw: true})
	if err != nil {
		t.Fatal(err)
	}
	if raw.Edges > implicit.Edges {
		t.Fatalf("raw slice has more edges (%d) than reconstructed (%d)", raw.Edges, implicit.Edges)
	}
	if raw.Edges == implicit.Edges {
		t.Log("note: O1 elided nothing on this chain (raw == reconstructed)")
	}

	info, err := cl.Traces(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(info) != 1 || !info[0].Reconstructing || info[0].Program != w.Prog.Name {
		t.Fatalf("trace info: %+v", info[0])
	}
}

// TestServerDeadline: an effectively-zero deadline interrupts (or
// outright rejects) the query rather than hanging; generous deadlines
// don't perturb results.
func TestServerDeadline(t *testing.T) {
	w := prog.Compress(1500, 1)
	cl, id, _, _ := newService(t, w, false, ServerOptions{DefaultDeadline: time.Minute})
	ctx := context.Background()

	req := &SliceRequest{Trace: id, Direction: DirForward,
		Criteria: []Criterion{{TID: 0, N: 1}}, FollowControl: true}
	full, err := cl.Slice(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if full.Interrupted {
		t.Fatalf("generous deadline interrupted: %+v", full)
	}

	tight := *req
	tight.DeadlineMillis = 1
	got, err := cl.Slice(ctx, &tight)
	if err != nil {
		// The deadline can also fire while queued: a 503 is a valid
		// outcome for a 1ms budget.
		if !strings.Contains(err.Error(), "query limit") {
			t.Fatalf("tight deadline: %v", err)
		}
		return
	}
	if !got.Interrupted {
		// A fast machine can finish inside 1ms; the strict
		// interruption contract is pinned deterministically in
		// slicing's TestSliceCancellation. Here just require the
		// response stayed a valid under-approximation.
		t.Logf("note: 1ms deadline not hit (wall %.2fms)", got.WallMillis)
	}
	if got.Nodes > full.Nodes || got.Edges > full.Edges {
		t.Fatalf("deadline-limited slice larger than full: %d/%d vs %d/%d",
			got.Nodes, got.Edges, full.Nodes, full.Edges)
	}
}

// TestServerBodyLimit: slice and provenance bodies are capped at
// maxRequestBytes before decoding, so an oversized body is refused
// 413 without being buffered, while the largest request Validate
// accepts still fits and is served.
func TestServerBodyLimit(t *testing.T) {
	// The limit covers the widest encodings it claims to.
	pc := int32(math.MinInt32)
	widest := Criterion{TID: MaxTID - 1, N: MaxN - 1, PC: &pc}
	enc, err := json.Marshal(widest)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc)+1 != maxCriterionBytes {
		t.Fatalf("widest criterion encodes to %d bytes + separator, maxCriterionBytes = %d", len(enc), maxCriterionBytes)
	}
	big := &SliceRequest{
		Trace:     strings.Repeat("\x01", 255) + "@" + strings.Repeat("\x01", 8),
		Direction: DirBackward, FollowControl: true, FollowAnti: true,
		MaxNodes: math.MaxInt, Workers: MaxWorkers, DeadlineMillis: math.MaxInt64,
		BudgetChunkLoads: math.MaxInt64, Raw: true,
	}
	for i := 0; i < MaxCriteria; i++ {
		big.Criteria = append(big.Criteria, widest)
	}
	if err := big.Validate(); err != nil {
		t.Fatal(err)
	}
	if enc, _ = json.Marshal(big); len(enc) > maxRequestBytes {
		t.Fatalf("widest valid request is %d bytes, over the %d-byte limit", len(enc), maxRequestBytes)
	}

	w := prog.Compress(150, 1)
	cl, id, _, _ := newService(t, w, true, ServerOptions{})
	post := func(path string, body []byte) int {
		t.Helper()
		resp, err := cl.hc.Post(cl.base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	// pad right-fills a request with whitespace to exactly n bytes.
	pad := func(req any, n int) []byte {
		t.Helper()
		data, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) > n {
			t.Fatalf("request is %d bytes, cannot pad to %d", len(data), n)
		}
		return append(data, bytes.Repeat([]byte(" "), n-len(data))...)
	}
	crits := make([]Criterion, MaxCriteria)
	for path, req := range map[string]any{
		"/v1/slice":      &SliceRequest{Trace: id, Direction: DirBackward, Criteria: crits},
		"/v1/provenance": &ProvenanceRequest{Trace: id, Criteria: crits},
	} {
		if got := post(path, pad(req, maxRequestBytes)); got != http.StatusOK {
			t.Fatalf("%s: %d criteria at the limit: http %d, want 200", path, MaxCriteria, got)
		}
		if got := post(path, pad(req, maxRequestBytes+1)); got != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: one byte over the limit: http %d, want 413", path, got)
		}
	}
	// The refusals cost the server nothing lasting: it keeps serving.
	if _, err := cl.Slice(context.Background(), &SliceRequest{Trace: id, Direction: DirBackward,
		Criteria: []Criterion{{TID: 0}}}); err != nil {
		t.Fatalf("query after 413s: %v", err)
	}
}
