package closure

import (
	"math/rand"
	"reflect"
	"testing"

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

// TestMergedSourceOverSnapshot runs the same property with the base
// behind a snapshot in every mode, since that is what a live ktpmd
// actually merges against.
func TestMergedSourceOverSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := randomGraph(t, rng, 30, 90, 5, 3)
	baseClosure := Compute(base, Options{})
	edges := randomNewEdges(rng, 30, 12, 3)
	g2, err := CombineGraph(base, edges)
	if err != nil {
		t.Fatal(err)
	}
	want := Compute(g2, Options{})

	for _, mode := range []SnapMode{SnapEager, SnapLazy, SnapMMap} {
		for _, v2 := range []bool{false, true} {
			path := t.TempDir() + "/base.snap"
			if err := writeSnapshotFile(path, baseClosure, v2); err != nil {
				t.Fatal(err)
			}
			snap, err := OpenSnapshotFile(path, mode)
			if err != nil {
				t.Fatal(err)
			}
			d := NewDelta()
			d.AddEdges(g2, edges)
			merged := NewMergedSource(g2, snap, d)
			if v2 {
				// A columnar base is merged from its columns: no touched
				// table gains a cached row-major copy.
				for i := range snap.tabs {
					if snap.tabs[i].Load() != nil {
						t.Fatalf("%v v2: merging materialized a row-major copy of table %d", mode, i)
					}
				}
			}
			assertSameSource(t, merged, want)
			snap.Close()
		}
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
