package store

import (
	"reflect"
	"sync"
	"testing"

	"ktpm/internal/closure"
	"ktpm/internal/gen"
	"ktpm/internal/graph"
	"ktpm/internal/label"
)

// example41 builds the data graph of Figure 2(b) as rendered in the rtg
// tests, enough to exercise D/E/L layouts.
func smallGraph(t testing.TB) (*graph.Graph, *closure.Closure) {
	t.Helper()
	b := graph.NewBuilder()
	for _, l := range []string{"a", "a", "c", "c", "d", "e"} {
		b.AddNode(l)
	}
	// a0 -> c2 -> d4; a0 -> c3; a1 -> c3 -> d4 (w2); c2 -> e5.
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	b.AddEdge(1, 3)
	b.AddEdge(2, 4)
	b.AddWeightedEdge(3, 4, 2)
	b.AddEdge(2, 5)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, closure.Compute(g, closure.Options{})
}

func lbl(g *graph.Graph, name string) int32 {
	id, ok := g.Labels.Lookup(name)
	if !ok {
		panic("missing label " + name)
	}
	return int32(id)
}

// edge is one lane of an EdgeCols view, reassembled so tests can compare
// and print lists entry by entry.
type edge struct {
	From, Dist int32
	Direct     bool
}

// lanes reassembles a column view lane by lane (nil when empty).
func lanes(ec EdgeCols) []edge {
	var out []edge
	for i := range ec.From {
		out = append(out, edge{ec.From[i], ec.Dist[i], ec.Direct[i]})
	}
	return out
}

// loadBlock reads block idx of L^alpha_v through a fresh handle.
func loadBlock(s *Store, alpha, v int32, idx int) ([]edge, bool) {
	bc, last := s.OpenList(alpha, v).BlockCols(idx)
	return lanes(bc), last
}

func TestLoadBlockSortedByDistance(t *testing.T) {
	g, c := smallGraph(t)
	s := New(c, 2)
	a, d := lbl(g, "a"), int32(4)
	var all []edge
	for i := 0; ; i++ {
		blk, last := loadBlock(s, a, d, i)
		all = append(all, blk...)
		if last {
			break
		}
	}
	// Incoming to d4 from label a: a0 at distance 2 (a0->c2->d4), a1 at
	// distance 3 (a1->c3->d4 weight 1+2).
	if len(all) != 2 {
		t.Fatalf("incoming count = %d, want 2", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Dist > all[i].Dist {
			t.Fatalf("block entries unsorted: %v", all)
		}
	}
	if all[0].From != 0 || all[0].Dist != 2 {
		t.Fatalf("first entry = %+v, want a0 dist 2", all[0])
	}
}

func TestLoadBlockCountsIO(t *testing.T) {
	g, c := smallGraph(t)
	s := New(c, 1) // one entry per block
	a, d := lbl(g, "a"), int32(4)
	if n := s.OpenList(a, d).NumBlocks(); n != 2 {
		t.Fatalf("NumBlocks = %d, want 2", n)
	}
	loadBlock(s, a, d, 0)
	loadBlock(s, a, d, 1)
	cnt := s.Counters()
	if cnt.BlocksRead != 2 || cnt.EntriesRead != 2 {
		t.Fatalf("counters = %+v", cnt)
	}
	s.ResetCounters()
	if s.Counters().BlocksRead != 0 {
		t.Fatal("ResetCounters failed")
	}
}

func TestLoadBlockPastEnd(t *testing.T) {
	g, c := smallGraph(t)
	s := New(c, 4)
	blk, last := loadBlock(s, lbl(g, "a"), 4, 9)
	if blk != nil || !last {
		t.Fatalf("past-end block = %v,%v", blk, last)
	}
}

func TestDirectFlag(t *testing.T) {
	g, c := smallGraph(t)
	s := New(c, 8)
	// Incoming to c2 from a: direct edge a0->c2.
	blk, _ := loadBlock(s, lbl(g, "a"), 2, 0)
	if len(blk) != 1 || !blk[0].Direct {
		t.Fatalf("a->c2 = %+v, want direct", blk)
	}
	// Incoming to d4 from a: both at distance >= 2, not direct.
	blk, _ = loadBlock(s, lbl(g, "a"), 4, 0)
	for _, e := range blk {
		if e.Direct {
			t.Fatalf("a->d4 entry %+v marked direct", e)
		}
	}
}

func TestLoadD(t *testing.T) {
	g, c := smallGraph(t)
	s := New(c, 8)
	d := s.LoadD(lbl(g, "a"), lbl(g, "d"), false)
	if len(d) != 1 || d[0].V != 4 || d[0].Min != 2 {
		t.Fatalf("D[a][d] = %+v, want {4,2}", d)
	}
	// childOnly: no direct a->d edge.
	d = s.LoadD(lbl(g, "a"), lbl(g, "d"), true)
	if len(d) != 0 {
		t.Fatalf("D[a][d] direct = %+v, want empty", d)
	}
	// D[a][c]: c2 min 1 (from a0), c3 min 1 (from a0/a1).
	d = s.LoadD(lbl(g, "a"), lbl(g, "c"), false)
	if len(d) != 2 {
		t.Fatalf("D[a][c] = %+v", d)
	}
	for _, e := range d {
		if e.Min != 1 {
			t.Fatalf("D[a][c] entry %+v, want min 1", e)
		}
	}
}

func TestLoadE(t *testing.T) {
	g, c := smallGraph(t)
	s := New(c, 8)
	e := s.LoadE(lbl(g, "c"), lbl(g, "d"), false)
	// c2 -> d4 dist 1; c3 -> d4 dist 2.
	if len(e) != 2 {
		t.Fatalf("E[c][d] = %+v", e)
	}
	for _, en := range e {
		switch en.From {
		case 2:
			if en.Dist != 1 || en.To != 4 {
				t.Fatalf("E from c2 = %+v", en)
			}
		case 3:
			if en.Dist != 2 || en.To != 4 {
				t.Fatalf("E from c3 = %+v", en)
			}
		default:
			t.Fatalf("unexpected E source %d", en.From)
		}
	}
}

func TestLoadEMinPerSource(t *testing.T) {
	// A source with several targets of one label must yield exactly its
	// minimum.
	b := graph.NewBuilder()
	a := b.AddNode("a")
	b1 := b.AddNode("b")
	b2 := b.AddNode("b")
	x := b.AddNode("x")
	b.AddWeightedEdge(a, b1, 3)
	b.AddEdge(a, x)
	b.AddEdge(x, b2) // distance 2 to b2
	g, _ := b.Build()
	c := closure.Compute(g, closure.Options{})
	s := New(c, 8)
	e := s.LoadE(lbl(g, "a"), lbl(g, "b"), false)
	if len(e) != 1 || e[0].To != b2 || e[0].Dist != 2 {
		t.Fatalf("E[a][b] = %+v, want min (a,b2,2)", e)
	}
}

func TestWildcardMergedIncoming(t *testing.T) {
	g, c := smallGraph(t)
	s := New(c, 8)
	// All incoming to d4 regardless of source label: from a0(2), a1(3),
	// c2(1), c3(2).
	blk, last := loadBlock(s, label.Wildcard, 4, 0)
	if !last || len(blk) != 4 {
		t.Fatalf("wildcard incoming = %v (last=%v), want 4 entries", blk, last)
	}
	for i := 1; i < len(blk); i++ {
		if blk[i-1].Dist > blk[i].Dist {
			t.Fatalf("wildcard merge unsorted: %v", blk)
		}
	}
	_ = g
}

func TestWildcardD(t *testing.T) {
	g, c := smallGraph(t)
	s := New(c, 8)
	d := s.LoadD(label.Wildcard, lbl(g, "d"), false)
	if len(d) != 1 || d[0].Min != 1 {
		t.Fatalf("D[*][d] = %+v, want min 1 via c2", d)
	}
}

func TestTotalEdgesMatchesClosure(t *testing.T) {
	g := gen.ErdosRenyi(60, 200, 5, 42)
	c := closure.Compute(g, closure.Options{})
	s := New(c, 16)
	if s.TotalEdges() != c.NumEntries() {
		t.Fatalf("TotalEdges = %d, closure = %d", s.TotalEdges(), c.NumEntries())
	}
}

func TestBlockBoundaries(t *testing.T) {
	g := gen.ErdosRenyi(80, 400, 3, 43)
	c := closure.Compute(g, closure.Options{})
	s := New(c, 7)
	// Reassemble one long list across blocks and compare totals.
	var v, alpha int32 = -1, -1
	for a := int32(0); int(a) < g.NumLabels(); a++ {
		for n := int32(0); int(n) < g.NumNodes(); n++ {
			if s.incoming(a, n, nil).Len() > 14 {
				alpha, v = a, n
				break
			}
		}
	}
	if v < 0 {
		t.Skip("no long list in this instance")
	}
	want := s.incoming(alpha, v, nil).Len()
	lh := s.OpenList(alpha, v)
	got := 0
	for i := 0; i < lh.NumBlocks(); i++ {
		blk, last := lh.BlockCols(i)
		got += blk.Len()
		if last != (i == lh.NumBlocks()-1) {
			t.Fatalf("last flag wrong at block %d", i)
		}
	}
	if got != want {
		t.Fatalf("reassembled %d entries, want %d", got, want)
	}
}

// TestSharedPlaneDerivesOnce races many replicas into the same first
// derives (run with -race, as CI does): every distinct D table, E table,
// and wildcard merge must be derived exactly once process-wide no matter
// how many replicas ask concurrently, with every caller seeing the same
// published slice.
func TestSharedPlaneDerivesOnce(t *testing.T) {
	g := gen.ErdosRenyi(120, 600, 6, 77)
	c := closure.Compute(g, closure.Options{})
	base := New(c, 8)
	const replicas = 8
	stores := make([]*Store, replicas)
	for i := range stores {
		stores[i] = base.Replica()
	}
	nl := int32(g.NumLabels())
	type load struct{ alpha, beta int32 }
	var keys []load
	for a := int32(0); a < nl; a++ {
		for b := int32(0); b < nl; b++ {
			keys = append(keys, load{a, b})
		}
	}
	keys = append(keys, load{label.Wildcard, 0}, load{0, label.Wildcard})
	dGot := make([][][]DEntry, replicas)
	eGot := make([][][]EEntry, replicas)
	var wg sync.WaitGroup
	for i := 0; i < replicas; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := stores[i]
			for _, k := range keys {
				dGot[i] = append(dGot[i], s.LoadD(k.alpha, k.beta, false))
				eGot[i] = append(eGot[i], s.LoadE(k.alpha, k.beta, false))
			}
			for v := int32(0); int(v) < g.NumNodes(); v += 7 {
				loadBlock(s, label.Wildcard, v, 0)
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < replicas; i++ {
		if !reflect.DeepEqual(dGot[i], dGot[0]) || !reflect.DeepEqual(eGot[i], eGot[0]) {
			t.Fatalf("replica %d saw different derived tables than replica 0", i)
		}
	}
	var derives, hits int64
	for _, s := range stores {
		cnt := s.Counters()
		derives += cnt.TablesRead
		hits += cnt.TableHits
	}
	distinct := int64(2 * len(keys)) // one D and one E table per key
	if derives != distinct {
		t.Fatalf("summed TablesRead = %d, want exactly %d distinct derives", derives, distinct)
	}
	wantCalls := int64(replicas) * distinct
	if derives+hits != wantCalls {
		t.Fatalf("derives %d + hits %d = %d, want %d total loads", derives, hits, derives+hits, wantCalls)
	}
	if c := base.Counters(); c.TablesRead != 0 || c.TableHits != 0 {
		t.Fatalf("base store counters moved (%+v) though only replicas loaded", c)
	}
}

// TestReplicaCountersIsolation proves replica accounting never bleeds:
// I/O charged on one replica must be invisible on the base store and on
// sibling replicas, while derived data stays shared.
func TestReplicaCountersIsolation(t *testing.T) {
	g, c := smallGraph(t)
	base := New(c, 1)
	r1, r2 := base.Replica(), base.Replica()

	r1.LoadD(lbl(g, "a"), lbl(g, "d"), false) // first derive: r1 pays it
	loadBlock(r1, lbl(g, "a"), 4, 0)
	c1 := r1.Counters()
	if c1.TablesRead != 1 || c1.BlocksRead != 1 {
		t.Fatalf("r1 counters = %+v, want 1 table derive and 1 block", c1)
	}
	for name, s := range map[string]*Store{"base": base, "r2": r2} {
		if cnt := s.Counters(); cnt != (Counters{}) {
			t.Fatalf("%s counters = %+v, want all zero after r1's I/O", name, cnt)
		}
	}

	// The same table from r2 is a plane hit: entries delivered, no derive.
	d2 := r2.LoadD(lbl(g, "a"), lbl(g, "d"), false)
	c2 := r2.Counters()
	if c2.TablesRead != 0 || c2.TableHits != 1 || c2.TableEntriesRead != int64(len(d2)) {
		t.Fatalf("r2 counters = %+v, want a pure plane hit", c2)
	}
	if got := r1.Counters(); got != c1 {
		t.Fatalf("r1 counters moved from %+v to %+v on r2's load", c1, got)
	}

	// ResetCounters on a replica must not disturb siblings.
	r1.ResetCounters()
	if got := r2.Counters(); got != c2 {
		t.Fatalf("r2 counters changed by r1's reset: %+v -> %+v", c2, got)
	}
}

func TestQueryOnlyLabelHasNoTargets(t *testing.T) {
	g, c := smallGraph(t)
	s := New(c, 8)
	// Intern a label after the store is built, as a query with a
	// taxonomy-only label does.
	newID := int32(g.Labels.Intern("query-only-label"))
	if d := s.LoadD(lbl(g, "a"), newID, false); len(d) != 0 {
		t.Fatalf("D for query-only label = %v", d)
	}
	if e := s.LoadE(lbl(g, "a"), newID, false); len(e) != 0 {
		t.Fatalf("E for query-only label = %v", e)
	}
	if blk, last := loadBlock(s, newID, 0, 0); blk != nil || !last {
		t.Fatalf("block for query-only label = %v,%v", blk, last)
	}
}

// TestLazySourceFaultsOnDemand pins the NewFromConfig contract: no table
// is carved at construction, a block read faults exactly the (α, l(v))
// table it needs, and the carved lists answer identically to the eager
// layout's.
func TestLazySourceFaultsOnDemand(t *testing.T) {
	g, c := smallGraph(t)
	eager := New(c, 2)
	lazy := NewFromConfig(c, Config{BlockSize: 2})
	if n := lazy.TablesLoaded(); n != 0 {
		t.Fatalf("NewFromConfig carved %d tables, want 0", n)
	}
	if eager.TablesLoaded() != int64(c.NumTables()) {
		t.Fatalf("New carved %d tables, want %d", eager.TablesLoaded(), c.NumTables())
	}
	a, cL, dL := lbl(g, "a"), lbl(g, "c"), lbl(g, "d")
	// One block read faults one table.
	want, wantLast := loadBlock(eager, a, 4, 0)
	got, gotLast := loadBlock(lazy, a, 4, 0)
	if !reflect.DeepEqual(got, want) || gotLast != wantLast {
		t.Fatalf("lazy block = %v/%v, eager = %v/%v", got, gotLast, want, wantLast)
	}
	if n := lazy.TablesLoaded(); n != 1 {
		t.Fatalf("one block read carved %d tables, want 1", n)
	}
	// A second read of the same table stays resident.
	loadBlock(lazy, a, 4, 0)
	if n := lazy.TablesLoaded(); n != 1 {
		t.Fatalf("re-read carved more tables: %d", n)
	}
	// Summary tables and wildcard merges agree with the eager layout.
	if got, want := lazy.LoadD(cL, dL, false), eager.LoadD(cL, dL, false); !reflect.DeepEqual(got, want) {
		t.Fatalf("lazy D = %v, eager = %v", got, want)
	}
	gotW, _ := loadBlock(lazy, label.Wildcard, 4, 0)
	wantW, _ := loadBlock(eager, label.Wildcard, 4, 0)
	if !reflect.DeepEqual(gotW, wantW) {
		t.Fatalf("lazy wildcard block = %v, eager = %v", gotW, wantW)
	}
	if lazy.TotalEdges() != eager.TotalEdges() {
		t.Fatalf("TotalEdges %d, want %d", lazy.TotalEdges(), eager.TotalEdges())
	}
}

// TestLazySourceConcurrentFaults hammers one lazy store from many
// goroutines (run under -race) and checks every result against the eager
// layout: concurrent first faults of the same table must carve once and
// agree.
func TestLazySourceConcurrentFaults(t *testing.T) {
	g, c := smallGraph(t)
	eager := New(c, 2)
	lazy := NewFromConfig(c, Config{BlockSize: 2})
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := int32(0); int(v) < g.NumNodes(); v++ {
				for a := int32(0); int(a) < g.NumLabels(); a++ {
					for idx := 0; ; idx++ {
						got, gLast := loadBlock(lazy, a, v, idx)
						want, wLast := loadBlock(eager, a, v, idx)
						if !reflect.DeepEqual(got, want) || gLast != wLast {
							errs <- "block mismatch"
							return
						}
						if gLast {
							break
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, bad := <-errs; bad {
		t.Fatal(msg)
	}
	if n, want := lazy.TablesLoaded(), int64(c.NumTables()); n != want {
		t.Fatalf("concurrent faults carved %d tables, want %d", n, want)
	}
}

// TestLazyReplicaSharesCarves pins that replicas share the carved
// layout: a table faulted through one replica is resident for all.
func TestLazyReplicaSharesCarves(t *testing.T) {
	g, c := smallGraph(t)
	base := NewFromConfig(c, Config{BlockSize: 2})
	r1, r2 := base.Replica(), base.Replica()
	a := lbl(g, "a")
	loadBlock(r1, a, 4, 0)
	n := base.TablesLoaded()
	if n == 0 {
		t.Fatal("no table carved")
	}
	loadBlock(r2, a, 4, 0)
	if base.TablesLoaded() != n || r1.TablesLoaded() != n || r2.TablesLoaded() != n {
		t.Fatal("replicas do not share carved tables")
	}
}

// flakySource wraps a closure source and serves one table short (empty
// while TableLen still reports the real count — the shape of a lazy
// snapshot's fault-time load failure) until healed.
type flakySource struct {
	closure.TableSource
	failAlpha, failBeta int32
	healed              bool
}

func (f *flakySource) Table(alpha, beta int32) []closure.Entry {
	if !f.healed && alpha == f.failAlpha && beta == f.failBeta {
		return nil
	}
	return f.TableSource.Table(alpha, beta)
}

// TestShortCarveRefaults pins the failure-path contract: a carve that
// comes up short (source fault) is served best-effort but never cached —
// neither the incoming lists, nor the D/E summary tables, nor the
// wildcard merges derived over it — so once the source heals, every path
// self-repairs to the eager layout's answers.
func TestShortCarveRefaults(t *testing.T) {
	g, c := smallGraph(t)
	a, d := lbl(g, "a"), lbl(g, "d")
	src := &flakySource{TableSource: c, failAlpha: a, failBeta: d}
	lazy := NewFromConfig(src, Config{BlockSize: 2})
	eager := New(c, 2)

	// While the source faults: the failing table reads empty, everything
	// else is unaffected.
	if got, _ := loadBlock(lazy, a, 4, 0); len(got) != 0 {
		t.Fatalf("failing table served %v", got)
	}
	if n := lazy.TablesLoaded(); n != 0 {
		t.Fatalf("short carve counted as loaded: %d", n)
	}
	wantD := eager.LoadD(a, d, false)
	if bad := lazy.LoadD(a, d, false); len(bad) >= len(wantD) {
		t.Fatalf("derived D over a short carve has %d rows, eager has %d", len(bad), len(wantD))
	}
	badW, _ := loadBlock(lazy, label.Wildcard, 4, 0)
	wantW, _ := loadBlock(eager, label.Wildcard, 4, 0)
	if reflect.DeepEqual(badW, wantW) {
		t.Fatal("wildcard merge over a short carve should be missing edges")
	}

	// Source heals: every path must refault and repair, including the
	// derived plane and wildcard merges (nothing was cached).
	src.healed = true
	gotB, _ := loadBlock(lazy, a, 4, 0)
	wantB, _ := loadBlock(eager, a, 4, 0)
	if !reflect.DeepEqual(gotB, wantB) {
		t.Fatalf("after heal: block %v, want %v", gotB, wantB)
	}
	if got := lazy.LoadD(a, d, false); !reflect.DeepEqual(got, wantD) {
		t.Fatalf("after heal: D %v, want %v", got, wantD)
	}
	gotW, _ := loadBlock(lazy, label.Wildcard, 4, 0)
	if !reflect.DeepEqual(gotW, wantW) {
		t.Fatalf("after heal: wildcard %v, want %v", gotW, wantW)
	}
	// And the repaired derivation is now cached: the next load is a hit.
	before := lazy.Counters().TableHits
	lazy.LoadD(a, d, false)
	if lazy.Counters().TableHits != before+1 {
		t.Fatal("healed derivation was not published to the plane")
	}
}
