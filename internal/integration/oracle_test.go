package integration

import (
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"testing"

	"ktpm/internal/closure"
	"ktpm/internal/core"
	"ktpm/internal/dp"
	"ktpm/internal/fsio"
	"ktpm/internal/graph"
	"ktpm/internal/lazy"
	"ktpm/internal/query"
	"ktpm/internal/rtg"
	"ktpm/internal/store"
)

// oracleGraph builds a random weighted DAG-ish graph over labels a..e:
// a few forward edges per node keep multi-level queries matchable
// without blowing up the closure.
func oracleGraph(t *testing.T, n int, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(string(rune('a' + rng.Intn(5))))
	}
	for i := int32(1); int(i) < n; i++ {
		for e := 0; e < 3; e++ {
			b.AddWeightedEdge(int32(rng.Intn(int(i))), i, int32(1+rng.Intn(3)))
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// oracleQueries covers '//' and '/' edges, wildcards, duplicate labels
// and a single-node query.
var oracleQueries = []string{"a(b)", "a(b,c(d))", "a(*,c)", "a(/b)", "c(d,e)", "b(b)", "*(/c)", "e"}

// checkSource runs the four kTPM algorithms over one closure source and
// its block store and compares every score sequence with the brute-force
// enumeration of want — a closure of the same graph computed from
// scratch.
func checkSource(t *testing.T, name string, src closure.TableSource, st *store.Store, want *closure.Closure, k int) {
	t.Helper()
	g := want.Graph()
	matched := 0
	for _, qs := range oracleQueries {
		q, err := query.Parse(g.Labels, qs)
		if err != nil {
			t.Fatal(err)
		}
		ref := scoresCore(core.BruteForce(rtg.Build(want, q), k))
		matched += len(ref)
		check := func(algo string, got []int64) {
			t.Helper()
			if len(got) != len(ref) {
				t.Fatalf("%s %s on %s: %d matches, want %d", name, algo, qs, len(got), len(ref))
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("%s %s on %s: top-%d = %d, want %d", name, algo, qs, i+1, got[i], ref[i])
				}
			}
		}
		r := rtg.Build(src, q)
		check("Topk", scoresCore(core.TopK(r, k)))
		var got []int64
		for _, m := range dp.TopK(r, k) {
			got = append(got, m.Score)
		}
		check("DP-B", got)
		got = got[:0]
		for _, m := range lazy.TopK(st, q, k, lazy.Options{}) {
			got = append(got, m.Score)
		}
		check("Topk-EN", got)
		got = got[:0]
		for _, m := range dp.TopKLazy(st, q, k) {
			got = append(got, m.Score)
		}
		check("DP-P", got)
	}
	if matched == 0 {
		t.Fatalf("%s: no query matched; the comparison is vacuous", name)
	}
}

// openSnapshotStore writes src as a v1 or v2 snapshot, reopens it in
// mode, and lays a store over it the way ktpm.OpenSnapshot does: eager
// snapshots carve every table up front, lazy and mmap ones on first
// touch. The snapshot is closed when the test ends.
func openSnapshotStore(t *testing.T, src closure.TableSource, v2 bool, mode closure.SnapMode, blockSize int) (*closure.Snapshot, *store.Store) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.snap")
	if err := fsio.WriteFileAtomic(path, func(w io.Writer) error {
		if v2 {
			return closure.WriteSnapshotV2(w, src)
		}
		return closure.WriteSnapshot(w, src)
	}); err != nil {
		t.Fatal(err)
	}
	snap, err := closure.OpenSnapshotFile(path, mode)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { snap.Close() })
	st := store.NewFromConfig(snap, store.Config{BlockSize: blockSize})
	if mode == closure.SnapEager {
		st.MaterializeAll()
	}
	return snap, st
}

// TestOracleAllStores is the differential oracle over every way the
// block store can be backed: the in-memory closure, v1 and v2 snapshots
// in each of eager, lazy and mmap mode, and a MergedSource (base closure
// or snapshot plus a few delta edges, the serving state of a live epoch).
// Each must answer all four algorithms exactly like brute force over a
// closure computed from scratch on the same graph.
func TestOracleAllStores(t *testing.T) {
	const k = 60
	for _, seed := range []int64{3, 17} {
		g := oracleGraph(t, 40, seed)
		c := closure.Compute(g, closure.Options{})
		for _, bs := range []int{1, store.DefaultBlockSize} {
			checkSource(t, fmt.Sprintf("seed=%d bs=%d memory", seed, bs), c, store.New(c, bs), c, k)
			for _, v2 := range []bool{false, true} {
				for _, mode := range []closure.SnapMode{closure.SnapEager, closure.SnapLazy, closure.SnapMMap} {
					name := fmt.Sprintf("seed=%d bs=%d v2=%v %v", seed, bs, v2, mode)
					snap, st := openSnapshotStore(t, c, v2, mode, bs)
					checkSource(t, name, snap, st, c, k)
					if err := snap.Err(); err != nil {
						t.Fatalf("%s: snapshot fault: %v", name, err)
					}
				}
			}
		}

		// A live epoch: base plus delta edges, merged at read time.
		rng := rand.New(rand.NewSource(seed))
		var edges []graph.Edge
		for len(edges) < 6 {
			u, v := int32(rng.Intn(g.NumNodes())), int32(rng.Intn(g.NumNodes()))
			if u != v {
				edges = append(edges, graph.Edge{From: u, To: v, Weight: int32(1 + rng.Intn(3))})
			}
		}
		g2, err := closure.CombineGraph(g, edges)
		if err != nil {
			t.Fatal(err)
		}
		want := closure.Compute(g2, closure.Options{})
		d := closure.NewDelta()
		d.AddEdges(g2, edges)
		bases := map[string]closure.TableSource{"memory": c}
		for _, v2 := range []bool{false, true} {
			snap, _ := openSnapshotStore(t, c, v2, closure.SnapMMap, 0)
			bases[fmt.Sprintf("mmap v2=%v", v2)] = snap
		}
		for baseName, base := range bases {
			merged := closure.NewMergedSource(g2, base, d)
			st := store.NewFromConfig(merged, store.Config{BlockSize: 4})
			checkSource(t, fmt.Sprintf("seed=%d merged over %s", seed, baseName), merged, st, want, k)
		}
	}
}
