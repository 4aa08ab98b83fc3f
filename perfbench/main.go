// Command perfbench is spnet's end-to-end benchmark. It drives the system
// from outside, through the exported functions of its layers, in three
// seeded workloads:
//
//   - search: a live loopback fleet (3 clusters × 2 partners) holding a
//     static Zipf-titled corpus, queried in alternating blocks by an
//     open-loop Poisson generator at a fixed rate and by a closed loop,
//     with client churn running beside both.
//   - fetch: the same fleet shape serving one shared content store;
//     closed-loop downloads, each discovered by a query and verified
//     against its precomputed hash.
//   - model: the mean-value analysis and the discrete-event simulator on
//     seeded paper-default instances, with no sockets.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload search --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object holding
// the end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
// traced run instead, and the spans are written under .bench_build/. Lines
// before it are a human-readable report naming every measured quantity.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

var inf = math.Inf(1)

// metric is one named measurement.
type metric struct {
	name  string
	unit  string
	value float64
}

// The end-to-end metrics every workload reports, each for its own
// operation and unit of work. They are costs in process CPU time, the
// paper's processing load, because CPU time holds still when a shared host
// steals cycles and wall time does not; the report lines print the
// wall-clock latencies and rates beside them.
//
//	cpu_ms_per_op   search: per query at the fixed offered rate (open loop)
//	                fetch:  per download, discovery included
//	                model:  per analysis.Evaluate
//	work_per_cpu_s  search: correct queries in the closed loop
//	                fetch:  verified MiB
//	                model:  simulator events
//	setup_s         CPU seconds of one set-up, median over repeats
var endToEnd = []struct{ name, unit string }{
	{"cpu_ms_per_op", "ms"},
	{"work_per_cpu_s", "1/s"},
	{"setup_s", "s"},
}

// The per-layer metrics of a traced run. A workload that does not exercise a
// layer reports its metrics as 0.
var perLayer = []struct{ name, unit string }{
	{"p2p.dispatch_per_query", "count"},
	{"p2p.forwarded_per_query", "count"},
	{"p2p.service_us_mean", "us"},
	{"p2p.service_us_p99", "us"},
	{"p2p.shed_ratio", "ratio"},
	{"p2p.wire_bytes_per_query", "B"},
	{"index.search_us", "us"},
	{"index.allocs_per_search", "count"},
	{"index.add_us", "us"},
	{"index.remove_owner_us", "us"},
	{"routing.select_ns", "ns"},
	{"gnutella.query_encode_ns", "ns"},
	{"gnutella.hit_decode_ns", "ns"},
	{"gnutella.join_decode_ns", "ns"},
	{"gnutella.chunk_decode_ns", "ns"},
	{"gnutella.allocs_per_msg", "count"},
	{"metrics.meter_ns", "ns"},
	{"transfer.fetch_s_p50", "s"},
	{"transfer.chunks_retried", "count"},
	{"transfer.hash_us_per_chunk", "us"},
	{"network.launch_ms", "ms"},
	{"network.generate_ms", "ms"},
	{"topology.bfs_us", "us"},
	{"analysis.evaluate_allocs", "count"},
	{"analysis.evaluate_bytes", "B"},
	{"sim.ns_per_event", "ns"},
	{"sim.allocs_per_event", "count"},
	{"sim.events", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.late_max_ms", "ms"},
	{"loadgen.sent", "count"},
	{"trace.overhead_pct", "%"},
}

// runConfig is what every workload receives.
type runConfig struct {
	seed  uint64
	dur   time.Duration
	trace bool
	out   io.Writer // human-readable report lines
}

// result is a workload's outcome.
type result struct {
	correct           bool
	attempted, failed int
	e2e               []metric
	layers            []metric
	tracer            *Tracer
}

var workloads = map[string]func(runConfig) (*result, error){
	"search": runSearch,
	"fetch":  runFetch,
	"model":  runModel,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "search", "workload: search, fetch or model")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 for a traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments: workload %q, seconds %d, trace %d\n", *name, *seconds, *trace)
		return 2
	}
	env, _ := json.Marshal(map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "cpu": cpuModel(), "network": "loopback only",
	})
	fmt.Fprintf(stdout, "env %s\n", env)
	res, err := wl(runConfig{seed: *seed, dur: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, out: stdout})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	specs, got := endToEnd, res.e2e
	if *trace == 1 {
		specs, got = perLayer, res.layers
		if err := writeSpans(res.tracer, *name, *seed, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	out, err := resultJSON(res, specs, got)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// resultJSON renders the final line: every metric of specs, in order, with
// the values the workload measured (0 for a layer it does not exercise).
func resultJSON(res *result, specs []struct{ name, unit string }, got []metric) ([]byte, error) {
	byName := make(map[string]metric, len(got))
	for _, m := range got {
		byName[m.name] = m
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(specs))
	for _, s := range specs {
		m := byName[s.name]
		if m.name != "" && m.unit != s.unit {
			return nil, fmt.Errorf("metric %s measured in %s, declared in %s", s.name, m.unit, s.unit)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, fmt.Errorf("metric %s is %v", s.name, m.value)
		}
		metrics[s.name] = value{m.value, s.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, metrics})
}

// writeSpans writes the traced run's spans under .bench_build/ and prints
// each span name's self time.
func writeSpans(tr *Tracer, workload string, seed uint64, out io.Writer) error {
	if tr == nil {
		return nil
	}
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", workload, seed))
	if err := tr.WriteFile(path); err != nil {
		return err
	}
	fmt.Fprintf(out, "spans written to %s\n", path)
	for _, t := range tr.Totals() {
		fmt.Fprintf(out, "span %-22s count=%-8d total_ms=%-12.3f self_ms=%.3f\n", t.Name, t.Count, t.Total, t.Self)
	}
	return nil
}

// report prints one human-readable line of named values.
func report(w io.Writer, label string, ms ...metric) {
	fmt.Fprintf(w, "%s:", label)
	for _, m := range ms {
		fmt.Fprintf(w, " %s=%.6g %s;", m.name, m.value, m.unit)
	}
	fmt.Fprintln(w)
}

// overheadPct is the tracing overhead: how much more CPU per operation the
// traced half of a run cost than the untraced half, in percent.
func overheadPct(untraced, traced float64) metric {
	return metric{"trace.overhead_pct", "%", 100 * (traced - untraced) / untraced}
}
