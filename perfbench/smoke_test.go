package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// printedEverywhere lists the end-to-end metrics beyond the gated ones
// that every workload prints.
var printedEverywhere = []string{"query_p50_ms", "query_p90_ms", "query_p99_ms", "failed_frac"}

// applies lists, per workload, the further metrics a traced run must
// print with a value.
var applies = map[string][]string{
	"read-hot":  {"query_qps", "closure.build_ms", "obs.overhead_us", "lru.evictions", "server.admission_wait_p99_ms"},
	"read-deep": {"query_qps", "closure.snapshot_open_ms", "shard.gather_ms", "shard.merge_self_ms", "shard.merged"},
	"read-dist": {"query_qps", "closure.snapshot_open_ms", "shard.gather_ms", "shard.merge_self_ms", "shard.merged",
		"remote.topk_ms", "remote.overhead_ms", "remote.retries", "remote.hedges"},
	"write-mix": {"ingest_edges_per_s", "ingest_p50_ms", "ingest_p90_ms", "closure.snapshot_open_ms",
		"closure.combine_graph_ms", "closure.delta_add_ms", "closure.merged_source_ms", "closure.delta_entries",
		"closure.merged_tables", "closure.snapshot_write_ms", "store.publish_ms", "wal.append_us",
		"wal.bytes_per_edge", "ktpm.ingest_ms", "ktpm.compactions", "ktpm.compact_ms"},
}

// TestSmoke runs every workload briefly, traced, against a ktpmd built
// from this module's source, and checks that every metric that applies
// is printed by name with its unit and that every answer checked out.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "ktpmd")
	if out, err := exec.Command("go", "build", "-o", bin, "ktpm/cmd/ktpmd").CombinedOutput(); err != nil {
		t.Fatalf("building ktpmd: %v\n%s", err, out)
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			r, err := newRun(w, 7, 1, true, bin, dir)
			if err != nil {
				t.Fatal(err)
			}
			r.smoke = true
			var out bytes.Buffer
			if err := r.execute(&out); err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			printed := map[string]string{} // metric -> "value unit"
			var last string
			sc := bufio.NewScanner(&out)
			for sc.Scan() {
				last = sc.Text()
				if f := strings.Fields(last); len(f) == 4 && f[0] == "metric" {
					if f[3] != metricUnits[f[1]] {
						t.Errorf("%s printed with unit %q, want %q", f[1], f[3], metricUnits[f[1]])
					}
					printed[f[1]] = f[2]
				}
			}
			var res resultJSON
			if err := json.Unmarshal([]byte(last), &res); err != nil {
				t.Fatalf("last line is not the result: %q", last)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("result %+v, want correct with ops attempted\n%s", res, out.String())
			}
			for _, n := range perLayer {
				if m, ok := res.Metrics[n]; !ok || m.Unit != metricUnits[n] {
					t.Errorf("result lacks %s (%+v)", n, m)
				}
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("result has %d metrics, want the %d per-layer ones", len(res.Metrics), len(perLayer))
			}
			want := append(append(append([]string{}, endToEnd...), perLayer...), printedEverywhere...)
			for _, n := range append(want, applies[w]...) {
				if v, ok := printed[n]; !ok || v == "n/a" {
					t.Errorf("%s not printed with a value (%q)", n, v)
				}
			}
		})
	}
}
