// Command perfbench is scaldift's end-to-end benchmark: one command
// that drives the recorder → analyzer → trace store → slicer → query
// service path through each module's public functions, checks every
// output against a reference, and prints every metric by name with its
// unit.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload dift-lineage --seed 1 --seconds 36 --trace 0
//	bash perfbench/run.sh --manifest > BENCHMARK.json
//
// --trace 0 runs the timed end-to-end phase with tracing off and prints
// the end-to-end metrics; --trace 1 is the separate traced run that
// measures each layer's stages one at a time, prints the per-layer
// metrics, and writes the recorded spans under .bench_build/spans/.
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it
// carries the run's context (host fingerprint, sizes, sample counts).
// README.md in this directory lists every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"scaldift/internal/benchfp"
)

// workload is one named traffic shape. run drives it for the given
// budget and fills the result; it reports a setup or harness error
// (not a correctness failure, which is counted in the result).
type workload struct {
	name string
	why  string
	run  func(cfg runConfig, res *result) error
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	tr      *tracer
	workDir string // scratch space for stores, inside the checkout
}

// workloads are the benchmark's traffic shapes. Each why (at most 200
// characters, the manifest's limit) says which side of the system the
// workload exercises and the layers it loads and bypasses; README.md
// has the full story.
var workloads = []workload{
	{
		name: "dift-lineage",
		why: "Analyze side: offloaded lineage DIFT, 2 workers, mapreduce at 4 threads, windows on every dispatch path; " +
			"loads vm, pipeline, dift/shadow/lineage/bdd; bypasses ontrac, store, slicing, query",
		run: runDiftLineage,
	},
	{
		name: "trace-record",
		why: "Write side: offloaded ONTRAC, 2 workers, psum at 4 threads into a fresh sync store.Writer; " +
			"loads vm, consumer, ontrac, store.Writer; bypasses propagation, store.Reader, slicing, query",
		run: runTraceRecord,
	},
	{
		name: "slice-query",
		why: "Read side: HTTP open loop, assumed mix/20: 11 backward, 4 provenance, 1 forward, 4 repeats; " +
			"ladder 6.25-400/s x2^0.25, p99<=250ms; loads store.Reader, slicing, query; bypasses vm, pipeline, ontrac",
		run: runSliceQuery,
	},
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", runSeconds, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()

	if *manifest {
		return writeManifest(os.Stdout)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("--seconds must be positive and --trace 0 or 1")
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, tr: newTracer(*trace == 1), workDir: work}
	res := newResult(cfg.trace)
	if err := w.run(cfg, res); err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	if cfg.trace {
		path := filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.json", w.name, *seed))
		if err := cfg.tr.write(path, w.name, *seed); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := res.complete(); err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	ctx, err := json.Marshal(map[string]any{
		"workload": w.name,
		"seed":     *seed,
		"trace":    *trace,
		"host":     benchfp.Current(),
		"context":  res.context,
	})
	if err != nil {
		return err
	}
	line, err := res.marshal()
	if err != nil {
		return err
	}
	fmt.Println(string(ctx))
	fmt.Println(string(line))
	return nil
}

// buildDir is the checkout-local directory for scratch stores and
// span files; .gitignore names it.
const buildDir = ".bench_build"

// deadline returns the instant a timed phase of the given length that
// starts now ends.
func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}
