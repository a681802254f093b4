package closure

import (
	"cmp"
	"fmt"
	"slices"

	"ktpm/internal/graph"
)

// Delta is the in-memory overlay the ingest path accumulates between
// compactions: for every (from, to) pair whose shortest distance a new
// edge created or improved, the overlay holds the candidate distance.
// Merging a Delta with the immutable base closure via NewMergedSource
// yields exactly the closure of the updated graph (see AddEdges for the
// correctness argument), without recomputing the base.
//
// A Delta is not safe for concurrent mutation; the ingest path
// serializes AddEdges calls and publishes immutable MergedSources.
type Delta struct {
	tables  map[pairKey]map[fromTo]int32 // (alpha, beta) -> (from, to) -> min candidate dist
	entries int
	edges   int
}

type fromTo struct{ from, to int32 }

// NewDelta returns an empty overlay.
func NewDelta() *Delta {
	return &Delta{tables: make(map[pairKey]map[fromTo]int32)}
}

// Entries is the number of (from, to) pairs in the overlay.
func (d *Delta) Entries() int { return d.entries }

// TablesTouched is the number of label-pair tables the overlay affects.
func (d *Delta) TablesTouched() int { return len(d.tables) }

// EdgesApplied is the number of edges folded in via AddEdges.
func (d *Delta) EdgesApplied() int { return d.edges }

func (d *Delta) add(key pairKey, ft fromTo, dist int32) {
	tab := d.tables[key]
	if tab == nil {
		tab = make(map[fromTo]int32)
		d.tables[key] = tab
	}
	if old, ok := tab[ft]; ok {
		if dist < old {
			tab[ft] = dist
		}
		return
	}
	tab[ft] = dist
	d.entries++
}

// AddEdges folds the incremental closure of newly-added edges into the
// overlay. g must be the combined graph that already contains the
// edges (plus every edge from earlier AddEdges calls on this Delta).
//
// For each new edge (u, v, w) it runs a reverse shortest-path search
// from u and a forward search from v over g, and records the candidate
// dist(x→u) + w + dist(v→y) for every reaching x and reachable y.
// Every candidate is the length of a real path in g, so it can never
// undershoot the true distance; and for any (x, y) whose shortest
// distance the update batch changed, some final shortest path runs
// through at least one new edge — the searches from that edge yield
// exactly the true distance, because their segments are themselves
// shortest paths in g. Min-merging these candidates over the base
// closure therefore reproduces Compute(g) exactly. This holds across
// multiple AddEdges calls on the same Delta as long as g grows
// monotonically: stale (larger) candidates from earlier calls are
// still real path lengths and lose the min to the exact ones.
//
// Depth-truncated closures (Options.MaxDepth > 0) are not supported —
// truncation is not reconstructible from per-edge searches.
func (d *Delta) AddEdges(g *graph.Graph, edges []graph.Edge) {
	n := g.NumNodes()
	distFwd := make([]int32, n)
	distRev := make([]int32, n)
	for i := range distFwd {
		distFwd[i], distRev[i] = -1, -1
	}
	for _, e := range edges {
		// Sources reaching u (reverse search), including u itself at 0.
		reachedRev := deltaSearch(g, e.From, distRev, true)
		distRev[e.From] = 0
		// Targets reachable from v (forward), including v itself at 0.
		reachedFwd := deltaSearch(g, e.To, distFwd, false)
		distFwd[e.To] = 0

		for _, x := range append(reachedRev, e.From) {
			dx := distRev[x]
			lx := g.Label(x)
			for _, y := range append(reachedFwd, e.To) {
				if x == y {
					continue // the closure stores no self-pairs
				}
				d.add(pairKey{lx, g.Label(y)}, fromTo{x, y}, dx+e.Weight+distFwd[y])
			}
		}

		distRev[e.From], distFwd[e.To] = -1, -1
		for _, x := range reachedRev {
			distRev[x] = -1
		}
		for _, y := range reachedFwd {
			distFwd[y] = -1
		}
		d.edges++
	}
}

// deltaSearch is Dijkstra from src over g (reversed edges when rev),
// writing distances into dist and returning reached nodes excluding
// src. Unit-weight graphs take the same path — correct, marginally
// slower than BFS, and not worth a second code path on the write side.
func deltaSearch(g *graph.Graph, src int32, dist []int32, rev bool) []int32 {
	type qi struct{ d, v int32 }
	h := []qi{{0, src}}
	push := func(e qi) {
		h = append(h, e)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if h[p].d <= h[i].d {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
	}
	pop := func() qi {
		top := h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		for i := 0; ; {
			l, r, s := 2*i+1, 2*i+2, i
			if l < len(h) && h[l].d < h[s].d {
				s = l
			}
			if r < len(h) && h[r].d < h[s].d {
				s = r
			}
			if s == i {
				break
			}
			h[i], h[s] = h[s], h[i]
			i = s
		}
		return top
	}
	visit := func(v int32, fn func(adj, w int32) bool) {
		if rev {
			g.In(v, fn)
		} else {
			g.Out(v, fn)
		}
	}
	dist[src] = 0
	var reached []int32
	for len(h) > 0 {
		cur := pop()
		if cur.d > dist[cur.v] {
			continue
		}
		visit(cur.v, func(adj, w int32) bool {
			nd := cur.d + w
			if dist[adj] < 0 || nd < dist[adj] {
				if dist[adj] < 0 {
					reached = append(reached, adj)
				}
				dist[adj] = nd
				push(qi{nd, adj})
			}
			return true
		})
	}
	dist[src] = -1
	return reached
}

// MergedSource is a ColumnSource presenting base ∪ delta: label-pair
// tables the overlay touches are materialized as columns (min-merged
// into the canonical (To, Dist, From) order) at construction; untouched
// tables pass through to the base unchanged, preserving its lazy/mmap
// faulting. The result is immutable — mutating the Delta afterwards
// does not affect an already-built MergedSource.
type MergedSource struct {
	g          *graph.Graph
	base       TableSource
	merged     map[pairKey]Cols
	numEntries int64
	numTables  int
}

var _ ColumnSource = (*MergedSource)(nil)

// NewMergedSource materializes delta over base. g is the combined
// graph the merged closure describes (base graph + delta edges); it
// becomes the source's Graph(). Touched base tables are faulted here,
// once, rather than at query time: through TableCols on a column base,
// through Table on a row-major *Closure. Each merge runs through one
// reused row scratch and is stored transposed into its own columns.
func NewMergedSource(g *graph.Graph, base TableSource, d *Delta) *MergedSource {
	m := &MergedSource{
		g:          g,
		base:       base,
		merged:     make(map[pairKey]Cols, len(d.tables)),
		numEntries: base.NumEntries(),
		numTables:  base.NumTables(),
	}
	cs, native := base.(ColumnSource)
	// slot[v] is 1 + the position in the output of the entry from v in
	// the To group being merged, 0 for none; reset after every group.
	slot := make([]int32, g.NumNodes())
	var ov, out []Entry
	for key, overlay := range d.tables {
		ov = ov[:0]
		for ft, dd := range overlay {
			ov = append(ov, Entry{From: ft.from, To: ft.to, Dist: dd})
		}
		slices.SortFunc(ov, func(a, b Entry) int { return cmp.Compare(a.To, b.To) })
		var added int
		if native {
			out, added = mergeTable(cs.TableCols(key.a, key.b), ov, slot, out)
		} else {
			out, added = mergeTable(entryRows(base.Table(key.a, key.b)), ov, slot, out)
		}
		if len(out) == added {
			m.numTables++ // the base had no such table
		}
		m.numEntries += int64(added)
		m.merged[key] = colsFromEntries(Cols{}, out)
	}
	return m
}

// entryRows is a row-major table behind the same accessors as Cols.
type entryRows []Entry

func (r entryRows) Len() int       { return len(r) }
func (r entryRows) At(i int) Entry { return r[i] }

// cmpDistFrom is the canonical order within one To group.
func cmpDistFrom(a, b Entry) int {
	if a.Dist != b.Dist {
		return cmp.Compare(a.Dist, b.Dist)
	}
	return cmp.Compare(a.From, b.From)
}

// mergeTable min-merges ov — overlay entries of one table, sorted by To
// — into base, a table in canonical (To, Dist, From) order, and returns
// the merged table and how many entries the overlay added. The result
// is built in scratch (reused when large enough), so it is only valid
// until the next call. Base groups (runs of equal To) that no overlay
// entry touches are copied as they are; only a group whose content
// changed is re-sorted. slot must be all zero and is left all zero.
func mergeTable[T interface {
	Len() int
	At(i int) Entry
}](base T, ov []Entry, slot []int32, scratch []Entry) ([]Entry, int) {
	n := base.Len()
	out := scratch[:0]
	if cap(out) < n+len(ov) {
		out = make([]Entry, 0, n+len(ov))
	}
	added := 0
	i := 0
	for j := 0; j < len(ov); {
		to := ov[j].To
		for ; i < n; i++ {
			e := base.At(i)
			if e.To >= to {
				break
			}
			out = append(out, e)
		}
		g := len(out)
		for ; i < n; i++ {
			e := base.At(i)
			if e.To != to {
				break
			}
			out = append(out, e)
			slot[e.From] = int32(len(out))
		}
		changed := false
		for ; j < len(ov) && ov[j].To == to; j++ {
			e := ov[j]
			if k := slot[e.From]; k > 0 {
				if e.Dist < out[k-1].Dist {
					out[k-1].Dist = e.Dist
					changed = true
				}
				continue
			}
			out = append(out, e)
			added++
			changed = true
		}
		for _, e := range out[g:] {
			slot[e.From] = 0
		}
		if changed {
			slices.SortFunc(out[g:], cmpDistFrom)
		}
	}
	for ; i < n; i++ {
		out = append(out, base.At(i))
	}
	return out, added
}

// Graph returns the combined graph.
func (m *MergedSource) Graph() *graph.Graph { return m.g }

// NumEntries returns the merged closure size.
func (m *MergedSource) NumEntries() int64 { return m.numEntries }

// NumTables returns the merged table count.
func (m *MergedSource) NumTables() int { return m.numTables }

// TableLen returns the merged length of L^α_β without faulting
// untouched base tables.
func (m *MergedSource) TableLen(alpha, beta int32) int {
	if tab, ok := m.merged[pairKey{alpha, beta}]; ok {
		return tab.Len()
	}
	return m.base.TableLen(alpha, beta)
}

// TableCols returns the merged L^α_β as columns. An untouched table is
// the base's own TableCols — zero-copy under an mmap base. Only over a
// row-major base (an in-memory *Closure boot base, before the first
// compaction) is it a transpose of base.Table, built per call and never
// cached.
func (m *MergedSource) TableCols(alpha, beta int32) Cols {
	if tab, ok := m.merged[pairKey{alpha, beta}]; ok {
		return tab
	}
	if cs, ok := m.base.(ColumnSource); ok {
		return cs.TableCols(alpha, beta)
	}
	return colsFromEntries(Cols{}, m.base.Table(alpha, beta))
}

// Table returns the merged L^α_β in canonical (To, Dist, From) order.
// A merged table is transposed from its columns on every call; readers
// go through TableCols.
func (m *MergedSource) Table(alpha, beta int32) []Entry {
	if tab, ok := m.merged[pairKey{alpha, beta}]; ok {
		return tab.Entries()
	}
	return m.base.Table(alpha, beta)
}

// TableLens iterates merged table sizes: base tables (with overlaid
// counts where touched) first, then overlay-only tables.
func (m *MergedSource) TableLens(fn func(alpha, beta int32, count int) bool) {
	stop := false
	m.base.TableLens(func(alpha, beta int32, count int) bool {
		if tab, ok := m.merged[pairKey{alpha, beta}]; ok {
			count = tab.Len()
		}
		if !fn(alpha, beta, count) {
			stop = true
			return false
		}
		return true
	})
	if stop {
		return
	}
	for key, tab := range m.merged {
		if m.base.TableLen(key.a, key.b) > 0 {
			continue // already reported through the base pass
		}
		if !fn(key.a, key.b, tab.Len()) {
			return
		}
	}
}

// Tables iterates every merged table through Table; untouched base
// tables fault here.
func (m *MergedSource) Tables(fn func(alpha, beta int32, entries []Entry) bool) {
	m.TableLens(func(alpha, beta int32, _ int) bool {
		return fn(alpha, beta, m.Table(alpha, beta))
	})
}

// ComputeStats summarizes the merged closure.
func (m *MergedSource) ComputeStats() Stats {
	s := Stats{Entries: m.numEntries, Tables: m.numTables, SizeBytes: m.numEntries * EntrySize}
	m.TableLens(func(_, _ int32, count int) bool {
		if count > s.MaxTable {
			s.MaxTable = count
		}
		return true
	})
	if s.Tables > 0 {
		s.Theta = float64(s.Entries) / float64(s.Tables)
	}
	if n := m.g.NumNodes(); n > 0 {
		s.AvgPerNode = float64(s.Entries) / float64(n)
	}
	return s
}

// CombineGraph rebuilds the combined graph: every node and edge of
// base plus the new edges, sharing base's label interner so canonical
// query strings parse identically across epochs. New edges must
// connect existing nodes; node-count growth is the compactor's job in
// a future PR.
func CombineGraph(base *graph.Graph, edges []graph.Edge) (*graph.Graph, error) {
	n := int32(base.NumNodes())
	b := graph.NewBuilderWithLabels(base.Labels)
	for v := int32(0); v < n; v++ {
		b.AddNodeLabelID(base.Label(v))
		if w := base.NodeWeight(v); w != 0 {
			b.SetNodeWeight(v, w)
		}
	}
	base.Edges(func(e graph.Edge) bool {
		b.AddWeightedEdge(e.From, e.To, e.Weight)
		return true
	})
	for _, e := range edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return nil, fmt.Errorf("edge (%d -> %d) references a node outside [0, %d)", e.From, e.To, n)
		}
		b.AddWeightedEdge(e.From, e.To, e.Weight)
	}
	return b.Build()
}
