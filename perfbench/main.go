// Command perfbench is the serving benchmark: it starts real ktpmd
// processes, drives them over HTTP from one load-generator process,
// checks every answer, and prints the end-to-end metrics of one
// workload (or, with -trace 1, the per-layer metrics of an in-process
// traced replay of the same inputs). run.sh builds it and ktpmd from the
// checkout; see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricUnits names every metric the benchmark can print.
var metricUnits = map[string]string{
	"setup_s": "s", "query_qps": "1/s", "query_p50_ms": "ms", "query_p90_ms": "ms", "query_p99_ms": "ms",
	"query_samples":      "count",
	"ingest_edges_per_s": "1/s", "ingest_p50_ms": "ms", "ingest_p90_ms": "ms",
	"failed_frac": "ratio", "server_rss_mb": "MB", "disk_mb": "MB",

	"query.parse_us": "us", "query.canonical_us": "us",
	"lru.hit_frac": "ratio", "lru.evictions": "count",
	"server.elapsed_ms": "ms", "server.residual_us": "us", "server.encode_us": "us",
	"server.resp_bytes": "bytes", "server.admission_wait_p99_ms": "ms",
	"obs.overhead_us":  "us",
	"closure.build_ms": "ms", "closure.snapshot_open_ms": "ms", "closure.tables_loaded": "count",
	"closure.combine_graph_ms": "ms", "closure.delta_add_ms": "ms", "closure.merged_source_ms": "ms",
	"closure.delta_entries": "count", "closure.merged_tables": "count", "closure.snapshot_write_ms": "ms",
	"closure.merged_source_share": "ratio",
	"store.tables_read":           "count", "store.blocks_read": "count", "store.entries_per_match": "count",
	"store.publish_ms":  "ms",
	"lazy.enumerate_ms": "ms", "lazy.us_per_match": "us", "lazy.active_frac": "ratio",
	"shard.gather_ms": "ms", "shard.merge_self_ms": "ms", "shard.merged": "count",
	"wal.append_us": "us", "wal.bytes_per_edge": "bytes",
	"ktpm.ingest_ms": "ms", "ktpm.ingest_self_ms": "ms", "ktpm.compactions": "count", "ktpm.compact_ms": "ms",
	"remote.topk_ms": "ms", "remote.overhead_ms": "ms", "remote.retries": "count", "remote.hedges": "count",
	"loadgen.lag_p99_ms":         "ms",
	"replay.trace_overhead_frac": "ratio",
}

// endToEnd names the metrics every workload measures steadily enough to
// gate, reported with -trace 0 and bounded in BENCHMARK.json. The rest
// are printed above the result line: the ingest metrics apply to
// write-mix only, failed_frac is 0 on correct code, and the query
// latencies and capacity of read-deep and read-dist move with the shared
// host's speed by more than the largest bound BENCHMARK.json allows (see
// README.md).
var endToEnd = []string{"setup_s", "server_rss_mb", "disk_mb"}

// perLayer names the per-layer metrics every workload's traced run
// yields, reported with -trace 1. Workload-specific layers (closure
// write path, WAL, shard, remote, obs) are printed above the result
// line.
var perLayer = []string{
	"query.parse_us", "query.canonical_us", "lru.hit_frac",
	"server.elapsed_ms", "server.residual_us", "server.encode_us", "server.resp_bytes",
	"store.tables_read", "store.blocks_read", "store.entries_per_match",
	"lazy.enumerate_ms", "lazy.us_per_match", "lazy.active_frac",
	"closure.tables_loaded", "loadgen.lag_p99_ms", "replay.trace_overhead_frac",
}

var workloads = []string{"read-hot", "read-deep", "write-mix", "read-dist"}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
		seed     = flag.Int64("seed", 1, "input seed: graph, queries, op order and edge stream derive from it")
		seconds  = flag.Int("seconds", 10, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 replays the inputs in-process with spans and reports per-layer metrics")
		bin      = flag.String("ktpmd", "", "ktpmd binary built from this checkout")
		work     = flag.String("work", ".bench_build", "directory for this run's data files and logs")
	)
	flag.Parse()
	runtime.GOMAXPROCS(2)
	if err := mainErr(os.Stdout, *workload, *seed, *seconds, *trace == 1, *bin, *work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(out io.Writer, workload string, seed int64, seconds int, trace bool, bin, work string) error {
	r, err := newRun(workload, seed, seconds, trace, bin, work)
	if err != nil {
		return err
	}
	return r.execute(out)
}

// newRun validates the flags and derives the run's inputs.
func newRun(workload string, seed int64, seconds int, trace bool, bin, work string) (*run, error) {
	known := false
	for _, w := range workloads {
		known = known || w == workload
	}
	if !known {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloads, ", "))
	}
	if seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1")
	}
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("ktpmd binary: %w", err)
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(work, fmt.Sprintf("run-%s-%d-", workload, seed))
	if err != nil {
		return nil, err
	}
	in, err := makeInputs(workload, seed, seconds)
	if err != nil {
		return nil, err
	}
	return &run{workload: workload, seed: seed, seconds: seconds, trace: trace, bin: bin, dir: dir, in: in, metrics: map[string]float64{}}, nil
}

// execute runs the workload and reports it. The run's directory is
// removed afterwards unless the run failed, when its logs are kept.
func (r *run) execute(out io.Writer) error {
	fmt.Fprintf(out, "perfbench: workload=%s seed=%d held_out_seed=%d seconds=%d trace=%v inputs=%s queries=%d k=%d edges=%d\n",
		r.workload, r.seed, heldOutSeed, r.seconds, r.trace, r.in.digest, len(r.in.queries), r.in.k, len(r.in.edges))
	r.lastMark = time.Now()
	err := r.openLogs()
	if err == nil {
		if r.workload == "write-mix" {
			err = r.runMix()
		} else {
			err = r.runRead()
		}
		r.closeLogs()
	}
	if err != nil {
		return fmt.Errorf("%s: %w (logs kept in %s)", r.workload, err, r.dir)
	}
	os.RemoveAll(r.dir)
	return report(out, r)
}

// report prints every measured metric by name and unit, then the result
// line.
func report(w io.Writer, r *run) error {
	var names []string
	for n := range metricUnits {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if v, ok := r.metrics[n]; ok {
			fmt.Fprintf(w, "metric %-30s %14.6g %s\n", n, v, metricUnits[n])
		} else {
			fmt.Fprintf(w, "metric %-30s %14s %s\n", n, "n/a", metricUnits[n])
		}
	}
	fmt.Fprintln(w, "phases:", strings.Join(r.phases, " "))
	if r.rounds != "" {
		fmt.Fprintln(w, "rounds:", r.rounds)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "note:", n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "check failed:", p)
	}
	res := resultJSON{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricJSON{},
	}
	gated := endToEnd
	if r.trace {
		gated = perLayer
	}
	for _, n := range gated {
		v, ok := r.metrics[n]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", n)
		}
		res.Metrics[n] = metricJSON{Value: v, Unit: metricUnits[n]}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(b))
	return nil
}
