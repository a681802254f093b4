// Package lazy implements Algorithms 2 and 3 of the paper (Topk-EN): top-k
// tree matching over a run-time graph that is loaded from the (simulated)
// disk store on demand, in priority order.
//
// The machinery follows Section 4 closely:
//
//   - A global minimum priority queue Qg holds "active" nodes — candidates
//     whose every child group already has at least one loaded edge — keyed
//     by lb(v) = bs̄(v) + e_v + L(q(v)), where bs̄ is the Equation-3 upper
//     bound over the loaded portion, e_v lower-bounds the unloaded incoming
//     distances (D-table minimum before any block is read, last loaded
//     distance afterwards — lists are distance-sorted), and L(u) =
//     n_T - 1 - |T_u| is the trivial remaining-edges bound. The LooseBound
//     option drops the L(u) term, which is the DP-P-style weaker trigger
//     (ablation A3 and the dp package's loading discipline).
//   - Popping Qg finalizes bs (Theorem 4.2) and loads the node's incoming
//     blocks while the re-estimated lb keeps it at the top (Algorithm 2,
//     Lines 14-17); loaded edges propagate (child, bs+δ) entries into
//     parents' child lists, activating or re-keying them (Line 13).
//   - Enumeration reuses the Lawler division of package core, but a
//     candidate computed from partial lists is only trusted once its score
//     is no larger than the current top of Qg (Theorem 4.1's monotonicity);
//     until then it parks in a pending set and is re-scored as loading
//     progresses, including the "empty now, nonempty later" ∞-score case
//     the paper calls out in Section 4.3.
package lazy

import (
	"math"
	"sort"

	"ktpm/internal/graph"
	"ktpm/internal/heap"
	"ktpm/internal/label"
	"ktpm/internal/obs"
	"ktpm/internal/query"
	"ktpm/internal/store"
)

// infScore marks a currently-empty subspace (Section 4.3). Kept well below
// MaxInt64 so additions cannot overflow.
const infScore = int64(math.MaxInt64 / 4)

// Bound selects the loading trigger.
type Bound int

const (
	// TightBound is the paper's lb with the remaining-edges term L(u).
	TightBound Bound = iota
	// LooseBound drops L(u), reproducing the weaker DP-P-style trigger;
	// it loads more edges but returns identical results.
	LooseBound
	// EdgeAwareBound strengthens L(u) beyond the paper: instead of
	// counting one unit per remaining query edge, it sums each remaining
	// edge's minimum possible distance as recorded in its D table. The
	// paper notes it can only identify "a trivial lower bound L(u)"
	// because it prices every edge at 1; the D tables loaded at
	// initialization already contain the per-edge minima, so this bound
	// is free to compute and never weaker. Results are identical; only
	// fewer edges are loaded (ablation A5 in DESIGN.md).
	EdgeAwareBound
)

// candidateBlock is the block size of the pending-candidate pool: parked
// candidates keep their scores cached in a contiguous column, invalidated
// by the governing child list's version counter, and each recheck pass
// processes the pool in blocks of this size — a refresh of the dirty
// lanes followed by a tight threshold scan of the score column against
// the Qg top.
const candidateBlock = 64

// Options configures the enumerator.
type Options struct {
	Bound Bound
	// RootFilter, when non-nil, restricts enumeration to matches whose
	// root position binds a data node the filter accepts; candidates for
	// non-root positions are unaffected. Because every match binds the
	// root to exactly one data node, filters over disjoint vertex sets
	// partition the match space — the property the shard package uses to
	// scatter-gather top-k: each shard's emission stays sorted by score
	// and the shards' unions reconstruct the unrestricted enumeration.
	RootFilter func(v int32) bool
	// Trace, when non-nil, parents the enumerator's trace spans: store
	// slow paths (table carves and first derives) record "table_fault"
	// children under it. Nil disables tracing at zero cost.
	Trace *obs.Span
}

// admitsRoot reports whether data node v may bind the root position.
func (o *Options) admitsRoot(v int32) bool {
	return o.RootFilter == nil || o.RootFilter(v)
}

// Match is one enumerated match; Nodes holds the matched data node per
// query position (BFS order).
type Match struct {
	Nodes []int32
	Score int64

	gids  []int32
	pivot int32
	excl  int32
}

type candidate struct {
	score  int64
	parent *Match // nil for the top-1 sentinel
	pivot  int32  // -1 for the top-1 sentinel
	excl   int32
}

// laNode is one lazily discovered run-time-graph node (query node u, data
// node v).
type laNode struct {
	u, v int32
	gid  int32
	// lists[pos] collects loaded child edges toward u's pos-th child.
	// Stored by value (carved from the enumerator's slab) so creating a
	// node does not allocate one ChildList header per child position.
	lists []heap.ChildList
	// initChild dedups the E-table seed edge against later block loads.
	initChild []int32
	nonEmpty  int
	bsBar     int64
	active    bool
	popped    bool
	inRoots   bool
	nextBlock int
	blocksAll bool
	ev        int64
	// lh is the node's incoming list, resolved exactly once at the first
	// expansion (store.OpenList); every later block load reuses it instead
	// of re-walking the carved-table maps per block.
	lh   store.ListHandle
	lhOK bool
}

// Enumerator streams matches in non-decreasing score order while loading
// as little of the run-time graph as the bound allows.
type Enumerator struct {
	q   *query.Tree
	s   *store.Store
	g   *graph.Graph
	opt Options

	nT          int32
	remainLB    []int64
	posInParent []int32
	parentLabel []int32

	nodes []*laNode
	byKey []map[int32]int32
	dmin  []map[int32]int32

	qg       *heap.Indexed
	rootList *heap.ChildList
	queue    *heap.Min
	emitted  int

	// The pending pool is a structure of arrays: lane i of the four
	// slices is one parked candidate with its cached score, the child
	// list governing it, and that list's version when the score was
	// computed. ChildList.Version changes exactly on Insert — the only
	// mutation that can change a candidate's score — so a recheck pass
	// re-evaluates only lanes whose version moved and answers the rest
	// from the contiguous score column. candidateBlock tiles the pass.
	pending   []*candidate
	pendScore []int64
	pendVer   []uint32
	pendList  []*heap.ChildList

	// Slab allocators for the enumeration hot path: laNodes, their child
	// lists and initChild arrays, matches, and match node buffers are
	// carved from chunked backing arrays so discovering a run-time-graph
	// node or emitting a match costs O(1) allocations amortized instead
	// of several each. Chunks are never reallocated, so pointers and
	// subslices into them stay valid for the enumerator's lifetime.
	nodeSlab   []laNode
	nodeChunk  int
	listSlab   []heap.ChildList
	listChunk  int
	i32Slab    []int32
	i32Chunk   int
	matchSlab  []Match
	matchChunk int
	// mi32Slab backs Match.gids/Nodes only. Match buffers escape to
	// callers (and from there into ktpmd's result cache), so they get a
	// slab of their own: a retained Match pins at most other match
	// buffers from the same enumeration, never per-node scratch like
	// initChild, which lives in i32Slab.
	mi32Slab  []int32
	mi32Chunk int
	// candFree recycles candidates popped from the queue (dead after
	// materialization); candSlab feeds misses.
	candFree []*candidate
	candSlab []candidate
	// inSubtree is materialize's reusable scratch, cleared per call.
	inSubtree []bool
}

// nextChunk doubles a slab's chunk size from start up to cap, so small
// queries pay a small fixed overhead while large enumerations amortize
// allocation to O(1) per element.
func nextChunk(cur, start, max int) int {
	if cur == 0 {
		return start
	}
	if cur*2 > max {
		return max
	}
	return cur * 2
}

// newNode carves one laNode from the slab.
func (e *Enumerator) newNode() *laNode {
	if len(e.nodeSlab) == 0 {
		e.nodeChunk = nextChunk(e.nodeChunk, 32, 1024)
		e.nodeSlab = make([]laNode, e.nodeChunk)
	}
	nd := &e.nodeSlab[0]
	e.nodeSlab = e.nodeSlab[1:]
	return nd
}

// carveLists carves n zero-valued (empty) ChildLists from the slab.
func (e *Enumerator) carveLists(n int) []heap.ChildList {
	if n == 0 {
		return nil
	}
	if len(e.listSlab) < n {
		e.listChunk = nextChunk(e.listChunk, 32, 512)
		if n > e.listChunk {
			e.listChunk = n
		}
		e.listSlab = make([]heap.ChildList, e.listChunk)
	}
	out := e.listSlab[:n:n]
	e.listSlab = e.listSlab[n:]
	return out
}

// carveI32 carves an n-element int32 buffer from the scratch slab.
func (e *Enumerator) carveI32(n int) []int32 {
	if n == 0 {
		return nil
	}
	if len(e.i32Slab) < n {
		e.i32Chunk = nextChunk(e.i32Chunk, 128, 4096)
		if n > e.i32Chunk {
			e.i32Chunk = n
		}
		e.i32Slab = make([]int32, e.i32Chunk)
	}
	out := e.i32Slab[:n:n]
	e.i32Slab = e.i32Slab[n:]
	return out
}

// carveMatchI32 carves an n-element int32 buffer from the match-only slab.
func (e *Enumerator) carveMatchI32(n int) []int32 {
	if len(e.mi32Slab) < n {
		e.mi32Chunk = nextChunk(e.mi32Chunk, 128, 4096)
		if n > e.mi32Chunk {
			e.mi32Chunk = n
		}
		e.mi32Slab = make([]int32, e.mi32Chunk)
	}
	out := e.mi32Slab[:n:n]
	e.mi32Slab = e.mi32Slab[n:]
	return out
}

// newCandidate returns a zeroed candidate with the given fields, reusing
// one retired by Next when possible. A candidate has exactly one owner at
// a time (pending, then queue, then popped), so recycling after
// materialization cannot alias a live reference.
func (e *Enumerator) newCandidate(parent *Match, pivot, excl int32) *candidate {
	var c *candidate
	if n := len(e.candFree); n > 0 {
		c = e.candFree[n-1]
		e.candFree = e.candFree[:n-1]
	} else {
		if len(e.candSlab) == 0 {
			e.candSlab = make([]candidate, 64)
		}
		c = &e.candSlab[0]
		e.candSlab = e.candSlab[1:]
	}
	*c = candidate{parent: parent, pivot: pivot, excl: excl}
	return c
}

// New initializes the enumerator: loads the D tables for every query edge
// and the E tables for leaf edges (Algorithm 2, Line 1), creates the leaf
// and leaf-parent nodes, and seeds Qg with every active node.
func New(s *store.Store, q *query.Tree, opt Options) *Enumerator {
	if opt.Trace != nil {
		s = s.WithTrace(opt.Trace)
	}
	g := s.Graph()
	nT := int32(q.NumNodes())
	e := &Enumerator{
		q: q, s: s, g: g, opt: opt,
		nT:          nT,
		remainLB:    make([]int64, nT),
		posInParent: make([]int32, nT),
		parentLabel: make([]int32, nT),
		byKey:       make([]map[int32]int32, nT),
		dmin:        make([]map[int32]int32, nT),
		qg:          heap.NewIndexed(64),
		rootList:    heap.NewEmptyChildList(),
		queue:       &heap.Min{},
	}
	e.inSubtree = make([]bool, nT)
	for u := int32(0); u < nT; u++ {
		e.byKey[u] = make(map[int32]int32)
		if lb := int64(nT) - 1 - int64(q.Nodes[u].SubtreeSize); lb > 0 {
			e.remainLB[u] = lb
		}
		for pos, c := range q.Nodes[u].Children {
			e.posInParent[c] = int32(pos)
		}
		if p := q.Nodes[u].Parent; p >= 0 {
			e.parentLabel[u] = q.Nodes[p].Label
		}
	}
	if nT == 1 {
		// Degenerate single-node query: every label candidate is a root
		// match scoring only its own node weight.
		roots := make([]heap.Entry, 0, g.NumNodes())
		for _, v := range e.rootCandidates() {
			if !opt.admitsRoot(v) {
				continue
			}
			nd := e.getNode(0, v)
			nd.active, nd.popped, nd.inRoots = true, true, true
			nd.bsBar = int64(g.NodeWeight(v))
			roots = append(roots, heap.Entry{Key: nd.bsBar, Node: nd.gid})
		}
		for _, ent := range roots {
			e.rootList.Insert(ent)
		}
		e.park(e.newCandidate(nil, -1, 0))
		return e
	}
	// D tables for every query edge. Leaf nodes activate after the bound
	// refinement below so their initial lb already uses the final L(u).
	minEdge := make([]int64, nT) // per node u>0: min distance of edge (parent,u)
	var leafInit [][2]int32      // (u, v) pairs to activate
	for u := int32(1); u < nT; u++ {
		childOnly := q.Nodes[u].EdgeFromParent == query.Child
		dtab := s.LoadD(e.parentLabel[u], q.Nodes[u].Label, childOnly)
		e.dmin[u] = make(map[int32]int32, len(dtab))
		minEdge[u] = 1
		for i, d := range dtab {
			e.dmin[u][d.V] = d.Min
			if i == 0 || int64(d.Min) < minEdge[u] {
				minEdge[u] = int64(d.Min)
			}
		}
		if len(q.Nodes[u].Children) == 0 {
			for _, d := range dtab {
				leafInit = append(leafInit, [2]int32{u, d.V})
			}
		}
	}
	if opt.Bound == EdgeAwareBound {
		// L'(u) = Σ of per-edge minima over the query edges outside
		// T_u ∪ (parent(u), u), never weaker than the unit-priced bound.
		subSum := make([]int64, nT) // Σ minEdge over edges inside T_u
		for u := nT - 1; u >= 0; u-- {
			for _, c := range q.Nodes[u].Children {
				subSum[u] += subSum[c] + minEdge[c]
			}
		}
		var total int64
		for u := int32(1); u < nT; u++ {
			total += minEdge[u]
		}
		for u := int32(0); u < nT; u++ {
			lb := total - subSum[u] - minEdge[u]
			if u == 0 {
				lb = total - subSum[0]
			}
			if lb > e.remainLB[u] {
				e.remainLB[u] = lb
			}
		}
	}
	for _, lv := range leafInit {
		nd := e.getNode(lv[0], lv[1])
		nd.active = true
		nd.bsBar = int64(g.NodeWeight(lv[1])) // a leaf's bs is its node weight
		nd.ev = int64(e.dmin[lv[0]][lv[1]])
		e.qg.Push(int(nd.gid), e.lbOf(nd))
	}
	// E tables seed leaf-edge parents with the minimum child edge.
	for u := int32(0); u < nT; u++ {
		for pos, cIdx := range q.Nodes[u].Children {
			if len(q.Nodes[cIdx].Children) != 0 {
				continue
			}
			childOnly := q.Nodes[cIdx].EdgeFromParent == query.Child
			etab := s.LoadE(q.Nodes[u].Label, q.Nodes[cIdx].Label, childOnly)
			for _, en := range etab {
				childGid, ok := e.lookup(cIdx, en.To)
				if !ok {
					continue // defensive: E target missing from D
				}
				p := e.getNode(u, en.From)
				p.initChild[pos] = childGid
				e.insertEntry(p, pos, heap.Entry{
					Key:  int64(en.Dist) + e.nodes[childGid].bsBar,
					Node: childGid,
				})
			}
		}
	}
	e.park(e.newCandidate(nil, -1, 0))
	return e
}

// rootCandidates lists data nodes eligible for the root position.
func (e *Enumerator) rootCandidates() []int32 {
	lbl := e.q.Nodes[0].Label
	if lbl == label.Wildcard {
		all := make([]int32, e.g.NumNodes())
		for i := range all {
			all[i] = int32(i)
		}
		return all
	}
	return e.g.NodesWithLabel(lbl)
}

func (e *Enumerator) lookup(u, v int32) (int32, bool) {
	gid, ok := e.byKey[u][v]
	return gid, ok
}

// getNode returns the laNode for (u, v), creating an inactive one on first
// sight.
func (e *Enumerator) getNode(u, v int32) *laNode {
	if gid, ok := e.byKey[u][v]; ok {
		return e.nodes[gid]
	}
	nc := len(e.q.Nodes[u].Children)
	nd := e.newNode()
	nd.u, nd.v = u, v
	nd.gid = int32(len(e.nodes))
	nd.lists = e.carveLists(nc) // zero-valued ChildLists are empty lists
	nd.initChild = e.carveI32(nc)
	for i := range nd.initChild {
		nd.initChild[i] = -1
	}
	e.nodes = append(e.nodes, nd)
	e.byKey[u][v] = nd.gid
	return nd
}

// lbOf computes the Qg key of nd under the configured bound.
func (e *Enumerator) lbOf(nd *laNode) int64 {
	lb := nd.bsBar + nd.ev
	if e.opt.Bound != LooseBound {
		lb += e.remainLB[nd.u]
	}
	return lb
}

// insertEntry adds a loaded child edge into nd's pos-th list, maintaining
// activation state and the Line-13 key update.
func (e *Enumerator) insertEntry(nd *laNode, pos int, entry heap.Entry) {
	list := &nd.lists[pos]
	oldMin, hadMin := list.Min()
	list.Insert(entry)
	if !hadMin {
		nd.nonEmpty++
		if !nd.active && nd.nonEmpty == len(nd.lists) {
			e.activate(nd)
		}
		return
	}
	if nd.active && !nd.popped && entry.Key < oldMin.Key {
		nd.bsBar += entry.Key - oldMin.Key
		if e.qg.Contains(int(nd.gid)) {
			e.qg.Update(int(nd.gid), e.lbOf(nd))
		}
	}
}

// activate computes bs̄ (Equation 3) and queues the node, unless it is a
// non-root with no incoming edge from its parent label, which can never
// join a match.
func (e *Enumerator) activate(nd *laNode) {
	nd.active = true
	// bs'(v) = node weight of v plus Equation 3 over the loaded lists;
	// keys already carry each child's own bs', so node weights compose.
	nd.bsBar = int64(e.g.NodeWeight(nd.v))
	for i := range nd.lists {
		min, _ := nd.lists[i].Min()
		nd.bsBar += min.Key
	}
	if nd.u > 0 {
		d, ok := e.dmin[nd.u][nd.v]
		if !ok {
			return
		}
		nd.ev = int64(d)
	} else if !e.opt.admitsRoot(nd.v) {
		// A filtered-out root binding belongs to another shard: it never
		// enters Qg or the root list, so no match rooted here is emitted.
		// Its subtree still loads normally on behalf of admitted roots.
		return
	}
	e.qg.Push(int(nd.gid), e.lbOf(nd))
}

// expandTop implements Algorithm 2's pop-and-Expand step: finalize bs for
// the popped node, then for non-roots load incoming blocks while the
// re-estimated lb keeps the node at the front of Qg.
func (e *Enumerator) expandTop() {
	gidInt, _ := e.qg.Pop()
	nd := e.nodes[gidInt]
	nd.popped = true
	if nd.u == 0 {
		if !nd.inRoots {
			nd.inRoots = true
			e.rootList.Insert(heap.Entry{Key: nd.bsBar, Node: nd.gid})
		}
		return
	}
	childOnly := e.q.Nodes[nd.u].EdgeFromParent == query.Child
	pu := e.q.Nodes[nd.u].Parent
	pos := int(e.posInParent[nd.u])
	if !nd.lhOK {
		// Resolve the incoming list exactly once per node; every block of
		// this expansion (and any later re-expansion) reuses the handle.
		nd.lh = e.s.OpenList(e.parentLabel[nd.u], nd.v)
		nd.lhOK = true
	}
	for {
		if nd.blocksAll {
			return
		}
		// Block kernel: dist[] is sorted within the list, so the e_v
		// update is the block's tail lane, and the child-edge scan walks
		// the from[]/dist[]/direct[] columns directly.
		bc, last := nd.lh.BlockCols(nd.nextBlock)
		nd.nextBlock++
		if last {
			nd.blocksAll = true
		}
		if n := len(bc.Dist); n > 0 {
			if d := int64(bc.Dist[n-1]); d > nd.ev {
				nd.ev = d
			}
		}
		for i := range bc.From {
			if childOnly && !bc.Direct[i] {
				continue
			}
			p := e.getNode(pu, bc.From[i])
			if p.initChild[pos] == nd.gid {
				continue // E-table seed already inserted this edge
			}
			e.insertEntry(p, pos, heap.Entry{Key: nd.bsBar + int64(bc.Dist[i]), Node: nd.gid})
		}
		if nd.blocksAll {
			return
		}
		lbnew := e.lbOf(nd)
		if e.qg.Len() > 0 && lbnew > e.qg.PeekKey() {
			e.qg.Push(int(nd.gid), lbnew)
			return
		}
	}
}

// listAt returns the child list governing query position x in match m.
func (e *Enumerator) listAt(m *Match, x int32) *heap.ChildList {
	if x == 0 {
		return e.rootList
	}
	p := e.q.Nodes[x].Parent
	return &e.nodes[m.gids[p]].lists[e.posInParent[x]]
}

// govList returns the child list governing candidate c — the list whose
// Inserts are the only events that can change c's score.
func (e *Enumerator) govList(c *candidate) *heap.ChildList {
	if c.pivot < 0 {
		return e.rootList
	}
	return e.listAt(c.parent, c.pivot)
}

// candScoreList evaluates a candidate against its governing list (the
// current, possibly partial state); infScore marks a currently-empty
// subspace. The result is a pure function of (c, list contents): the
// parent score is immutable and Kth never changes what it returns for a
// given state, so the score stays valid until the list's next Insert.
func (e *Enumerator) candScoreList(c *candidate, list *heap.ChildList) int64 {
	if c.pivot < 0 {
		if best, ok := list.Kth(0); ok {
			return best.Key
		}
		return infScore
	}
	old, ok1 := list.Kth(int(c.excl) - 1)
	next, ok2 := list.Kth(int(c.excl))
	if !ok1 || !ok2 {
		return infScore
	}
	return c.parent.Score + next.Key - old.Key
}

// park appends c to the pending pool: the governing list is resolved
// once (list pointers are stable — ChildLists live in slab chunks that
// are never reallocated), the score computed, and both cached alongside
// the list version so later rechecks touch c again only when that list
// actually changed.
func (e *Enumerator) park(c *candidate) {
	l := e.govList(c)
	e.pending = append(e.pending, c)
	e.pendList = append(e.pendList, l)
	e.pendVer = append(e.pendVer, l.Version())
	e.pendScore = append(e.pendScore, e.candScoreList(c, l))
}

// recheckPending promotes confirmed parked candidates into the global
// queue. With Qg exhausted every finite score is final and ∞ subspaces
// are truly empty.
//
// The pool is processed in candidateBlock-sized blocks: first the block's
// dirty lanes — those whose governing list version moved since the score
// was cached — are re-evaluated, then a tight threshold scan over the
// contiguous score column pushes the lanes at or below the Qg top into
// the global queue and compacts the survivors in place. The scan
// touches one int64 per candidate, so a pass over a large pool with few
// dirty lanes is a near-pure sequential read instead of two Kth calls per
// candidate per pass.
func (e *Enumerator) recheckPending() {
	qgTop := infScore
	qgEmpty := e.qg.Len() == 0
	if !qgEmpty {
		qgTop = e.qg.PeekKey()
	}
	n := len(e.pending)
	kept := 0
	for lo := 0; lo < n; lo += candidateBlock {
		hi := min(lo+candidateBlock, n)
		// Refresh the block's stale lanes.
		for i := lo; i < hi; i++ {
			l := e.pendList[i]
			if v := l.Version(); e.pendVer[i] != v {
				e.pendScore[i] = e.candScoreList(e.pending[i], l)
				e.pendVer[i] = v
			}
		}
		// Threshold-scan the score column; promote and compact. The
		// candidate pointer is captured before compaction because kept
		// trails i — a later keepLane in the same block may overwrite
		// lane i's slot, so the promotion must not go back through it.
		for i := lo; i < hi; i++ {
			s := e.pendScore[i]
			if s >= infScore {
				if !qgEmpty {
					e.keepLane(kept, i)
					kept++
				}
				continue
			}
			if qgEmpty || s <= qgTop {
				c := e.pending[i]
				c.score = s
				e.queue.Push(heap.Item{Key: s, Val: c})
				continue
			}
			e.keepLane(kept, i)
			kept++
		}
	}
	e.pending = e.pending[:kept]
	e.pendScore = e.pendScore[:kept]
	e.pendVer = e.pendVer[:kept]
	e.pendList = e.pendList[:kept]
}

// keepLane moves pending lane src to dst across the pool's four columns.
func (e *Enumerator) keepLane(dst, src int) {
	if dst == src {
		return
	}
	e.pending[dst] = e.pending[src]
	e.pendScore[dst] = e.pendScore[src]
	e.pendVer[dst] = e.pendVer[src]
	e.pendList[dst] = e.pendList[src]
}

// materialize recovers the full match, as in package core but over lazily
// discovered nodes.
func (e *Enumerator) materialize(c *candidate) *Match {
	if len(e.matchSlab) == 0 {
		e.matchChunk = nextChunk(e.matchChunk, 16, 512)
		e.matchSlab = make([]Match, e.matchChunk)
	}
	m := &e.matchSlab[0]
	e.matchSlab = e.matchSlab[1:]
	buf := e.carveMatchI32(2 * int(e.nT)) // gids and Nodes share one allocation
	*m = Match{
		gids:  buf[:e.nT:e.nT],
		Nodes: buf[e.nT:],
		Score: c.score,
		pivot: c.pivot,
		excl:  c.excl,
	}
	inSubtree := e.inSubtree
	for i := range inSubtree {
		inSubtree[i] = false
	}
	var from int32
	if c.parent == nil {
		best, _ := e.rootList.Kth(0)
		m.gids[0] = best.Node
		m.pivot = -1
		inSubtree[0] = true
		from = 1
	} else {
		copy(m.gids, c.parent.gids)
		list := e.listAt(c.parent, c.pivot)
		entry, ok := list.Kth(int(c.excl))
		if !ok {
			panic("lazy: confirmed candidate points past its child list")
		}
		m.gids[c.pivot] = entry.Node
		inSubtree[c.pivot] = true
		from = c.pivot + 1
	}
	for y := from; y < e.nT; y++ {
		p := e.q.Nodes[y].Parent
		if !inSubtree[p] {
			continue
		}
		inSubtree[y] = true
		best, ok := e.nodes[m.gids[p]].lists[e.posInParent[y]].Min()
		if !ok {
			panic("lazy: best completion missing below a confirmed match")
		}
		m.gids[y] = best.Node
	}
	for u := int32(0); u < e.nT; u++ {
		m.Nodes[u] = e.nodes[m.gids[u]].v
	}
	return m
}

// divide parks the Lawler children of m (Cases 1 and 2) and lets
// recheckPending promote whichever are already confirmed.
func (e *Enumerator) divide(m *Match) {
	if m.pivot >= 0 {
		e.park(e.newCandidate(m, m.pivot, m.excl+1))
	}
	for x := m.pivot + 1; x < e.nT; x++ {
		e.park(e.newCandidate(m, x, 1))
	}
	e.recheckPending()
}

// Next returns the next match in non-decreasing score order, loading only
// as much of the run-time graph as confirmation requires.
func (e *Enumerator) Next() (*Match, bool) {
	for {
		for e.qg.Len() > 0 && (e.queue.Len() == 0 || e.qg.PeekKey() < e.queue.Peek().Key) {
			e.expandTop()
			e.recheckPending()
		}
		if e.queue.Len() > 0 {
			break
		}
		if e.qg.Len() == 0 {
			e.recheckPending()
			if e.queue.Len() == 0 {
				return nil, false
			}
		}
	}
	c := e.queue.Pop().Val.(*candidate)
	m := e.materialize(c)
	e.candFree = append(e.candFree, c) // dead once materialized
	e.divide(m)
	e.emitted++
	return m, true
}

// NextBatch fills dst with the next matches in non-decreasing score
// order and returns how many it produced. A return value smaller than
// len(dst) means the match space is exhausted — NextBatch never stops
// early, which is what lets the shard gather treat a short chunk as an
// end-of-stream marker. Emitting a chunk at a time amortizes the
// per-match hand-off cost of a consumer on the other side of a channel:
// one synchronization per len(dst) matches instead of one per match.
func (e *Enumerator) NextBatch(dst []*Match) int {
	n := 0
	for n < len(dst) {
		m, ok := e.Next()
		if !ok {
			break
		}
		dst[n] = m
		n++
	}
	return n
}

// Emitted returns how many matches have been produced.
func (e *Enumerator) Emitted() int { return e.emitted }

// Stats reports how much of the run-time graph enumeration touched; the
// quantities of Theorem 4.3 (m'_R via the store counters, n'_R here).
type Stats struct {
	// CreatedNodes counts lazily instantiated (query node, data node)
	// pairs.
	CreatedNodes int
	// ActiveNodes is n'_R, the nodes that ever activated.
	ActiveNodes int
}

// ComputeStats returns enumeration statistics.
func (e *Enumerator) ComputeStats() Stats {
	s := Stats{CreatedNodes: len(e.nodes)}
	for _, nd := range e.nodes {
		if nd.active {
			s.ActiveNodes++
		}
	}
	return s
}

// TopK returns up to k matches of q over the store in non-decreasing score
// order. Ties at the k-th score are returned in enumeration order — use
// TopKCanonical when the result must be a pure function of the store.
func TopK(s *store.Store, q *query.Tree, k int, opt Options) []*Match {
	e := New(s, q, opt)
	var out []*Match
	for len(out) < k {
		m, ok := e.Next()
		if !ok {
			break
		}
		out = append(out, m)
	}
	return out
}

// Less is the canonical total order over matches: by score, then node
// bindings lexicographically. Two distinct matches always differ in some
// binding. It is the order the public API and the shard scatter-gather
// promise, which makes top-k results byte-identical across shard counts.
func Less(a, b *Match) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			return a.Nodes[i] < b.Nodes[i]
		}
	}
	return false
}

// Canonicalize sorts ms by Less and truncates to the k smallest. The
// result stays non-decreasing by score, which merge loops that compact
// mid-gather rely on.
func Canonicalize(ms []*Match, k int) []*Match {
	sort.Slice(ms, func(i, j int) bool { return Less(ms[i], ms[j]) })
	if len(ms) > k {
		ms = ms[:k]
	}
	return ms
}

// DrainTopK pulls e's k best matches in canonical order: everything
// scoring at or below the k-th score is gathered (emission is
// non-decreasing, so the tie group at the k-th score ends at the first
// strictly greater match), compacted periodically so huge equal-score
// groups cost O(k) memory, and canonically sorted. consumed is how many
// matches were gathered before truncation. Draining the k-th tie group
// is what TopK skips and canonical output requires: any not-yet-emitted
// tie could order before an emitted one.
func DrainTopK(e *Enumerator, k int) (out []*Match, consumed int) {
	if k <= 0 {
		return nil, 0
	}
	compactAt := 2*k + 64
	for {
		m, ok := e.Next()
		if !ok {
			break
		}
		if len(out) >= k && m.Score > out[k-1].Score {
			break
		}
		consumed++
		out = append(out, m)
		if len(out) >= compactAt {
			out = Canonicalize(out, k)
		}
	}
	return Canonicalize(out, k), consumed
}

// TopKCanonical returns up to k matches of q in the canonical order
// (score, then node bindings) — the result is a pure function of the
// store contents, byte-identical to what the shard scatter-gather
// returns at any shard count. It costs draining the tie group at the
// k-th score beyond plain TopK.
func TopKCanonical(s *store.Store, q *query.Tree, k int, opt Options) []*Match {
	out, _ := DrainTopK(New(s, q, opt), k)
	return out
}

// CanonicalStream adapts an Enumerator to emit in canonical order:
// non-decreasing score with equal scores ordered by node bindings.
// Emission order within a tie group is arbitrary, so the stream buffers
// one whole group at a time plus a single lookahead match (the first
// match of the next group, which ends the current one); run-ahead past
// what the consumer asked for is bounded by that one match and the
// current group's tail.
type CanonicalStream struct {
	e        *Enumerator
	ahead    *Match
	started  bool
	tie      []*Match
	tiePos   int
	consumed int64
}

// NewCanonicalStream wraps e; e must not be advanced by anyone else.
func NewCanonicalStream(e *Enumerator) *CanonicalStream {
	return &CanonicalStream{e: e}
}

// Next returns the next match in canonical order; ok is false when the
// match space is exhausted.
func (cs *CanonicalStream) Next() (*Match, bool) {
	if cs.tiePos < len(cs.tie) {
		m := cs.tie[cs.tiePos]
		cs.tiePos++
		return m, true
	}
	if !cs.started {
		cs.started = true
		if m, ok := cs.e.Next(); ok {
			cs.ahead = m
			cs.consumed++
		}
	}
	if cs.ahead == nil {
		return nil, false
	}
	group := append(cs.tie[:0], cs.ahead)
	score := cs.ahead.Score
	cs.ahead = nil
	for {
		m, ok := cs.e.Next()
		if !ok {
			break
		}
		cs.consumed++
		if m.Score != score {
			cs.ahead = m
			break
		}
		group = append(group, m)
	}
	sort.Slice(group, func(i, j int) bool { return Less(group[i], group[j]) })
	cs.tie, cs.tiePos = group, 1
	return group[0], true
}

// Consumed returns how many matches have been pulled from the wrapped
// enumerator, including the buffered lookahead.
func (cs *CanonicalStream) Consumed() int64 { return cs.consumed }
