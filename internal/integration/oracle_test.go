package integration

import (
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"testing"

	"ktpm"
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

// oracleScores is the reference: the brute-force enumeration of want —
// a closure of the graph computed from scratch — for one query.
func oracleScores(t *testing.T, want *closure.Closure, qs string, k int) []int64 {
	t.Helper()
	q, err := query.Parse(want.Graph().Labels, qs)
	if err != nil {
		t.Fatal(err)
	}
	return scoresCore(core.BruteForce(rtg.Build(want, q), k))
}

// checkScores compares one algorithm's score sequence with the reference.
func checkScores(t *testing.T, name, algo, qs string, got, ref []int64) {
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

// checkSource runs the four kTPM algorithms over one closure source and
// its block store and compares every score sequence with the
// brute-force enumeration of want.
func checkSource(t *testing.T, name string, src closure.TableSource, st *store.Store, want *closure.Closure, k int) {
	t.Helper()
	g := want.Graph()
	matched := 0
	for _, qs := range oracleQueries {
		q, err := query.Parse(g.Labels, qs)
		if err != nil {
			t.Fatal(err)
		}
		ref := oracleScores(t, want, qs, k)
		matched += len(ref)
		r := rtg.Build(src, q)
		checkScores(t, name, "Topk", qs, scoresCore(core.TopK(r, k)), ref)
		var got []int64
		for _, m := range dp.TopK(r, k) {
			got = append(got, m.Score)
		}
		checkScores(t, name, "DP-B", qs, got, ref)
		got = got[:0]
		for _, m := range lazy.TopK(st, q, k, lazy.Options{}) {
			got = append(got, m.Score)
		}
		checkScores(t, name, "Topk-EN", qs, got, ref)
		got = got[:0]
		for _, m := range dp.TopKLazy(st, q, k) {
			got = append(got, m.Score)
		}
		checkScores(t, name, "DP-P", qs, got, ref)
	}
	if matched == 0 {
		t.Fatalf("%s: no query matched; the comparison is vacuous", name)
	}
}

// publicBackend is the query surface shared by ktpm.Database,
// ktpm.ShardedDatabase and ktpm.Live.
type publicBackend interface {
	ParseQuery(string) (*ktpm.Query, error)
	TopKWith(*ktpm.Query, int, ktpm.Options) ([]ktpm.Match, error)
}

// checkPublic runs every algorithm through a public serving backend and
// compares each score sequence with the brute-force enumeration of want.
func checkPublic(t *testing.T, name string, b publicBackend, want *closure.Closure, k int) {
	t.Helper()
	for _, qs := range oracleQueries {
		ref := oracleScores(t, want, qs, k)
		q, err := b.ParseQuery(qs)
		if err != nil {
			t.Fatalf("%s: parse %q: %v", name, qs, err)
		}
		for _, algo := range []ktpm.Algorithm{ktpm.AlgoTopkEN, ktpm.AlgoTopk, ktpm.AlgoDPB, ktpm.AlgoDPP} {
			ms, err := b.TopKWith(q, k, ktpm.Options{Algorithm: algo})
			if err != nil {
				t.Fatalf("%s %v on %s: %v", name, algo, qs, err)
			}
			got := make([]int64, len(ms))
			for i, m := range ms {
				got[i] = m.Score
			}
			checkScores(t, name, algo.String(), qs, got, ref)
		}
	}
}

// writeOracleSnapshot writes src as a snapshot file and returns its path.
func writeOracleSnapshot(t *testing.T, src closure.TableSource) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.snap")
	if err := fsio.WriteFileAtomic(path, func(w io.Writer) error {
		return closure.WriteSnapshotV2(w, src)
	}); err != nil {
		t.Fatal(err)
	}
	return path
}

// openSnapshotStore reopens the snapshot at path in mode and lays a
// store over it the way ktpm.OpenSnapshot does: eager snapshots carve
// every table up front, lazy and mmap ones on first touch. The snapshot
// is closed when the test ends.
func openSnapshotStore(t *testing.T, path string, mode closure.SnapMode, blockSize int) (*closure.Snapshot, *store.Store) {
	t.Helper()
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

var oracleModes = []closure.SnapMode{closure.SnapEager, closure.SnapLazy, closure.SnapMMap}

// TestOracleAllStores is the differential oracle over every way the
// block store can be backed and served: the in-memory closure, a
// snapshot in each of eager, lazy and mmap mode, a MergedSource (base
// closure or snapshot plus a few delta edges, the serving state of a
// live epoch), and through the public API a ShardedDatabase at {1, 2, 4}
// shards and a Live engine after ingest and after Compact, each over a
// boot snapshot in every mode. Each must answer all four algorithms
// exactly like brute force over a closure computed from scratch on the
// same graph.
func TestOracleAllStores(t *testing.T) {
	const k = 60
	for _, seed := range []int64{3, 17} {
		g := oracleGraph(t, 40, seed)
		c := closure.Compute(g, closure.Options{})
		path := writeOracleSnapshot(t, c)
		for _, bs := range []int{1, store.DefaultBlockSize} {
			checkSource(t, fmt.Sprintf("seed=%d bs=%d memory", seed, bs), c, store.New(c, bs), c, k)
			for _, mode := range oracleModes {
				name := fmt.Sprintf("seed=%d bs=%d %v", seed, bs, mode)
				snap, st := openSnapshotStore(t, path, mode, bs)
				checkSource(t, name, snap, st, c, k)
				if err := snap.Err(); err != nil {
					t.Fatalf("%s: snapshot fault: %v", name, err)
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
		snap, _ := openSnapshotStore(t, path, closure.SnapMMap, 0)
		bases["mmap"] = snap
		for baseName, base := range bases {
			merged := closure.NewMergedSource(g2, base, d)
			st := store.NewFromConfig(merged, store.Config{BlockSize: 4})
			checkSource(t, fmt.Sprintf("seed=%d merged over %s", seed, baseName), merged, st, want, k)
		}

		ingest := make([]ktpm.IngestEdge, len(edges))
		for i, e := range edges {
			ingest[i] = ktpm.IngestEdge{From: e.From, To: e.To, Weight: e.Weight}
		}
		for _, mode := range []ktpm.SnapshotMode{ktpm.SnapshotEager, ktpm.SnapshotLazy, ktpm.SnapshotMMap} {
			name := fmt.Sprintf("seed=%d %v", seed, mode)
			db, err := ktpm.OpenSnapshot(path, ktpm.SnapshotOptions{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{1, 2, 4} {
				sh, err := db.Shard(n, ktpm.PartitionByHash())
				if err != nil {
					t.Fatal(err)
				}
				checkPublic(t, fmt.Sprintf("%s shards=%d", name, n), sh, c, k)
			}
			// Live takes the boot snapshot over and closes it.
			live, err := ktpm.OpenLive(db, ktpm.LiveConfig{
				Dir: t.TempDir(), Fsync: "never", CompactThreshold: -1, SnapshotMode: mode,
			})
			if err != nil {
				db.Close()
				t.Fatal(err)
			}
			if _, err := live.Ingest(ingest); err != nil {
				t.Fatal(err)
			}
			checkPublic(t, name+" live after ingest", live, want, k)
			if err := live.Compact(); err != nil {
				t.Fatal(err)
			}
			checkPublic(t, name+" live after compact", live, want, k)
			if err := live.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
