package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// metricDef names one metric, its unit, and which direction is
// better. Bound is the share of the parent's median by which an
// end-to-end metric may worsen before a change counts as a regression;
// per-layer metrics have none, so the manifest omits it for them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them; README.md gives each one's reading per
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"events_per_s", "events/s", "higher", 0.25},
	{"trace_bytes_per_event", "B/event", "lower", 0.05},
	{"peak_heap_mb", "MB", "lower", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p99_ms", "ms", "lower", 0.25},
	{"sustained_qps", "1/s", "higher", 0.25},
}

// perLayer are the traced run's metrics. A workload that bypasses a
// layer reports 0 for that layer's metrics.
var perLayer = []metricDef{
	{"vm.native_events_per_s", "events/s", "higher", 0},
	{"vm.record_events_per_s", "events/s", "higher", 0},
	{"pipeline.analyze_events_per_s", "events/s", "higher", 0},
	{"pipeline.alloc_bytes_per_event", "B/event", "lower", 0},
	{"pipeline.allocs_per_event", "1/event", "lower", 0},
	{"pipeline.fast_parallel_ratio", "ratio", "higher", 0},
	{"pipeline.precise_scan_ratio", "ratio", "lower", 0},
	{"pipeline.grouped_ratio", "ratio", "higher", 0},
	{"pipeline.ordered_merge_ratio", "ratio", "lower", 0},
	{"pipeline.verify_misses_per_kevent", "1/kevent", "lower", 0},
	{"lineage.bdd_nodes", "count", "lower", 0},
	{"ontrac.analyze_events_per_s", "events/s", "higher", 0},
	{"ontrac.alloc_bytes_per_event", "B/event", "lower", 0},
	{"ontrac.elided_ratio", "ratio", "higher", 0},
	{"ontrac.inline_events_per_s", "events/s", "higher", 0},
	{"store.spill_mb_per_s", "MB/s", "higher", 0},
	{"store.segments_sealed", "count", "lower", 0},
	{"store.open_s", "s", "lower", 0},
	{"store.depsof_calls_per_node", "1/node", "lower", 0},
	{"store.depsof_busy_s", "s", "lower", 0},
	{"store.chunk_loads_per_query", "1/query", "lower", 0},
	{"store.alloc_bytes_per_node", "B/node", "lower", 0},
	{"slicing.nodes_per_s", "nodes/s", "higher", 0},
	{"slicing.shard_imbalance", "ratio", "lower", 0},
	{"query.server_wall_ms_p50", "ms", "lower", 0},
	{"query.overhead_ms_p50", "ms", "lower", 0},
	{"query.response_bytes_p50", "B", "lower", 0},
	{"query.result_cache_hit_ratio", "ratio", "higher", 0},
	{"query.rejected", "count", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
	{"ops_failed_ratio", "ratio", "lower", 0},
}

// runSeconds is the timed-phase length the manifest records as
// run_seconds, and the default of --seconds.
const runSeconds = 36

// writeManifest prints BENCHMARK.json from the tables above, so the
// manifest and the metrics the runs print cannot drift apart.
func writeManifest(w io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, x := range workloads {
		m.Workloads = append(m.Workloads, wl{x.name, x.why})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(m)
}

// result accumulates one run's operation counts and metric values.
type result struct {
	trace     bool
	attempted int64
	failed    int64
	failures  []string
	values    map[string]float64
	context   map[string]any
}

func newResult(trace bool) *result {
	return &result{trace: trace, values: make(map[string]float64), context: make(map[string]any)}
}

// set records a metric value.
func (r *result) set(name string, v float64) { r.values[name] = v }

// op counts one attempted operation; a failed one is remembered with
// its reason and printed to standard error when the run completes.
func (r *result) op(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
}

// complete checks that the run produced every metric its mode prints:
// every end-to-end metric positive and finite, every per-layer metric
// finite (bypassed layers report 0).
func (r *result) complete() error {
	for _, f := range r.failures {
		fmt.Printf("failed: %s\n", f)
	}
	if r.attempted == 0 {
		return fmt.Errorf("no operation attempted")
	}
	defs := endToEnd
	if r.trace {
		defs = perLayer
		r.set("ops_failed_ratio", float64(r.failed)/float64(r.attempted))
	}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !r.trace && (!ok || !(v > 0)) {
			return fmt.Errorf("end-to-end metric %s = %v, want a positive value", d.Name, v)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s = %v", d.Name, v)
		}
	}
	return nil
}

// marshal renders the result line.
func (r *result) marshal() ([]byte, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	ms := make(map[string]val, len(defs))
	for _, d := range defs {
		ms[d.Name] = val{r.values[d.Name], d.Unit}
	}
	return json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, ms})
}

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// medianOf runs f reps times and returns the median of its results.
func medianOf(reps int, f func() (float64, error)) (float64, error) {
	xs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		x, err := f()
		if err != nil {
			return 0, err
		}
		xs = append(xs, x)
	}
	return median(xs), nil
}

// repeatStage runs one traced stage's pass at least stageReps times
// and until its budget of seconds has passed, and reports the median
// of each metric the passes return.
func repeatStage(res *result, budget float64, pass func() (map[string]float64, error)) error {
	end := deadline(budget)
	per := make(map[string][]float64)
	for i := 0; i < stageReps || time.Now().Before(end); i++ {
		m, err := pass()
		if err != nil {
			return err
		}
		for k, v := range m {
			per[k] = append(per[k], v)
		}
	}
	for k, v := range per {
		res.set(k, median(v))
	}
	return nil
}

// heapPeak samples the heap's allocated-object bytes until stopped
// and keeps the high-water mark. runtime/metrics reads do not stop the
// world, so sampling barely perturbs the phase it watches.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapPeak() *heapPeak {
	runtime.GC() // start from live data only, not the previous phase's garbage
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// mb stops sampling and returns the high-water mark in MB (10^6 bytes).
func (h *heapPeak) mb() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / 1e6
}

// allocs reports heap bytes and objects allocated since a mark; one
// ReadMemStats per stage boundary is exact and cheap at that rate.
type allocMark struct{ bytes, objects uint64 }

func markAllocs() allocMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocMark{ms.TotalAlloc, ms.Mallocs}
}

func (a allocMark) since() (bytes, objects float64) {
	b := markAllocs()
	return float64(b.bytes - a.bytes), float64(b.objects - a.objects)
}

// seededWords varies an input size by up to 2% with the seed, so
// that sizes, like values, come from the seed.
func seededWords(words int, seed uint64) int {
	return words + int(seed%uint64(words/50+1))
}

// subSeed derives the seed of one generated input from the run seed,
// so every job and request of a run is a pure function of --seed.
func subSeed(seed uint64, stream, i int) uint64 {
	x := seed*0x9e3779b97f4a7c15 ^ uint64(stream)<<32 ^ uint64(i)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
