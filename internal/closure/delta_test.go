package closure

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"ktpm/internal/graph"
)

// randomGraph builds a random directed graph; weighted graphs draw
// weights in [1, maxW].
func randomGraph(t *testing.T, rng *rand.Rand, n, m, labels int, maxW int32) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	names := []string{"A", "B", "C", "D", "E", "F", "G", "H", "I", "J"}
	for i := 0; i < n; i++ {
		b.AddNode(names[rng.Intn(labels)])
	}
	for i := 0; i < m; i++ {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if u == v {
			continue
		}
		w := int32(1)
		if maxW > 1 {
			w = 1 + rng.Int31n(maxW)
		}
		b.AddWeightedEdge(u, v, w)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func randomNewEdges(rng *rand.Rand, n, count int, maxW int32) []graph.Edge {
	var out []graph.Edge
	for len(out) < count {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if u == v {
			continue
		}
		w := int32(1)
		if maxW > 1 {
			w = 1 + rng.Int31n(maxW)
		}
		out = append(out, graph.Edge{From: u, To: v, Weight: w})
	}
	return out
}

// assertSameSource compares two TableSources entry-for-entry.
func assertSameSource(t *testing.T, got, want TableSource) {
	t.Helper()
	if got.NumEntries() != want.NumEntries() {
		t.Fatalf("NumEntries: got %d, want %d", got.NumEntries(), want.NumEntries())
	}
	if got.NumTables() != want.NumTables() {
		t.Fatalf("NumTables: got %d, want %d", got.NumTables(), want.NumTables())
	}
	seen := 0
	want.TableLens(func(alpha, beta int32, count int) bool {
		seen++
		if gl := got.TableLen(alpha, beta); gl != count {
			t.Fatalf("TableLen(%d,%d): got %d, want %d", alpha, beta, gl, count)
		}
		gt, wt := got.Table(alpha, beta), want.Table(alpha, beta)
		if !reflect.DeepEqual(gt, wt) {
			t.Fatalf("Table(%d,%d) differs:\n got %v\nwant %v", alpha, beta, gt, wt)
		}
		return true
	})
	if seen != want.NumTables() {
		t.Fatalf("want iterated %d tables, NumTables says %d", seen, want.NumTables())
	}
	// The merged source must not report tables the reference lacks.
	got.TableLens(func(alpha, beta int32, count int) bool {
		if want.TableLen(alpha, beta) != count {
			t.Fatalf("extra/mismatched table (%d,%d) count %d in merged source", alpha, beta, count)
		}
		return true
	})
}

// TestMergedSourceMatchesRecompute is the core write-path correctness
// property: base closure + incremental delta must reproduce, table for
// table and entry for entry, a from-scratch closure over the combined
// graph — for unweighted and weighted graphs, single and multi-batch.
func TestMergedSourceMatchesRecompute(t *testing.T) {
	for _, tc := range []struct {
		name string
		maxW int32
	}{{"unweighted", 1}, {"weighted", 5}} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			for trial := 0; trial < 8; trial++ {
				base := randomGraph(t, rng, 40, 110, 6, tc.maxW)
				baseClosure := Compute(base, Options{})

				// Apply three batches of new edges, growing the graph
				// monotonically and re-running AddEdges over the grown
				// graph each time, exactly as the ingest path does.
				d := NewDelta()
				cur := base
				var all []graph.Edge
				for batch := 0; batch < 3; batch++ {
					edges := randomNewEdges(rng, 40, 5+rng.Intn(6), tc.maxW)
					all = append(all, edges...)
					g2, err := CombineGraph(cur, edges)
					if err != nil {
						t.Fatal(err)
					}
					cur = g2
					d.AddEdges(cur, edges)

					merged := NewMergedSource(cur, baseClosure, d)
					want := Compute(cur, Options{})
					assertSameSource(t, merged, want)
				}
				if d.EdgesApplied() != len(all) {
					t.Fatalf("EdgesApplied = %d, want %d", d.EdgesApplied(), len(all))
				}
			}
		})
	}
}

// mergeFixture is a base closure over a random 30-node graph with m
// edges and a delta of newEdges edges over it, with the from-scratch
// closure of the combined graph as the reference.
func mergeFixture(t *testing.T, m, newEdges int) (base *Closure, g2 *graph.Graph, d *Delta, want *Closure) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(t, rng, 30, m, 5, 3)
	base = Compute(g, Options{})
	edges := randomNewEdges(rng, 30, newEdges, 3)
	g2, err := CombineGraph(g, edges)
	if err != nil {
		t.Fatal(err)
	}
	d = NewDelta()
	d.AddEdges(g2, edges)
	return base, g2, d, Compute(g2, Options{})
}

// openBaseSnapshot writes base as a snapshot and opens it in mode; the
// snapshot is closed when the test ends.
func openBaseSnapshot(t *testing.T, base TableSource, mode SnapMode) *Snapshot {
	t.Helper()
	path := t.TempDir() + "/base.snap"
	if err := writeSnapshotFile(path, base); err != nil {
		t.Fatal(err)
	}
	snap, err := OpenSnapshotFile(path, mode)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { snap.Close() })
	return snap
}

// TestMergedSourceOverSnapshot runs the same property with the base
// behind a snapshot in every mode, since that is what a live ktpmd
// actually merges against.
func TestMergedSourceOverSnapshot(t *testing.T) {
	base, g2, d, want := mergeFixture(t, 90, 12)
	for _, mode := range []SnapMode{SnapEager, SnapLazy, SnapMMap} {
		snap := openBaseSnapshot(t, base, mode)
		assertSameSource(t, NewMergedSource(g2, snap, d), want)
		if err := snap.Err(); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
	}
}

// TestMergedSourceSnapshotBytes: compacting a live epoch — writing its
// MergedSource — yields the very bytes a snapshot of the from-scratch
// closure has, over an in-memory base and over a snapshot base in every
// mode.
func TestMergedSourceSnapshotBytes(t *testing.T) {
	base, g2, d, want := mergeFixture(t, 90, 12)
	var ref bytes.Buffer
	if err := WriteSnapshotV2(&ref, want); err != nil {
		t.Fatal(err)
	}
	bases := map[string]TableSource{"memory": base}
	for _, mode := range []SnapMode{SnapEager, SnapLazy, SnapMMap} {
		bases[mode.String()] = openBaseSnapshot(t, base, mode)
	}
	for name, b := range bases {
		var got bytes.Buffer
		if err := WriteSnapshotV2(&got, NewMergedSource(g2, b, d)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), ref.Bytes()) {
			t.Fatalf("%s base: merged snapshot (%d bytes) differs from the recomputed one (%d bytes)", name, got.Len(), ref.Len())
		}
	}
}

// TestMergedSourceTableColsZeroCopy: over an mmap base, a table the
// overlay did not touch is served as the base's own column view — the
// same backing array inside the mapping, not a copy.
func TestMergedSourceTableColsZeroCopy(t *testing.T) {
	// A sparse base and one new edge leave most tables untouched.
	base, g2, d, _ := mergeFixture(t, 20, 1)
	snap := openBaseSnapshot(t, base, SnapMMap)
	if snap.Mode() != SnapMMap {
		t.Skipf("mmap degraded to %v on this platform", snap.Mode())
	}
	m := NewMergedSource(g2, snap, d)
	checked := 0
	snap.TableLens(func(alpha, beta int32, count int) bool {
		if _, touched := d.tables[pairKey{alpha, beta}]; touched {
			return true
		}
		got, want := m.TableCols(alpha, beta), snap.TableCols(alpha, beta)
		for i, pair := range [3][2][]int32{{got.To, want.To}, {got.Dist, want.Dist}, {got.From, want.From}} {
			if len(pair[0]) != count || unsafe.SliceData(pair[0]) != unsafe.SliceData(pair[1]) {
				t.Fatalf("table (%d,%d) column %d: merged view does not share the base's backing array", alpha, beta, i)
			}
		}
		checked++
		return true
	})
	if checked == 0 {
		t.Fatal("the overlay touched every table; nothing checked")
	}
}

func TestCombineGraphRejectsUnknownNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(t, rng, 10, 20, 3, 1)
	if _, err := CombineGraph(g, []graph.Edge{{From: 0, To: 99, Weight: 1}}); err == nil {
		t.Fatal("CombineGraph accepted an out-of-range endpoint")
	}
	if _, err := CombineGraph(g, []graph.Edge{{From: -1, To: 2, Weight: 1}}); err == nil {
		t.Fatal("CombineGraph accepted a negative endpoint")
	}
}
