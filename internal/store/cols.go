package store

import (
	"sort"

	"ktpm/internal/obs"
)

// The store's structure-of-arrays layout: the carved image of one (α, β)
// closure table is a colTab — per-target spans over three shared columns.
// Lists are served as EdgeCols column views, so the enumeration hot loops
// (distance threshold scans, direct-flag filtering, D/E derivation,
// wildcard merging) are tight passes over contiguous int32/bool columns
// the compiler can keep in cache and vectorize.

// EdgeCols is a column view of one incoming list (or one block of it):
// lane i is the edge {From[i], Dist[i], Direct[i]} — Direct marks entries
// realized by a single data-graph edge — and lanes are sorted by
// (Dist, From). The slices are shared with the carved layout and must not
// be modified.
type EdgeCols struct {
	From   []int32
	Dist   []int32
	Direct []bool
}

// Len returns the number of lanes.
func (ec EdgeCols) Len() int { return len(ec.From) }

// slice returns the [lo, hi) lane sub-view.
func (ec EdgeCols) slice(lo, hi int) EdgeCols {
	return EdgeCols{From: ec.From[lo:hi], Dist: ec.Dist[lo:hi], Direct: ec.Direct[lo:hi]}
}

// FilterDistGE is the threshold-scan kernel over a distance-sorted
// column: it returns the number of leading lanes with dist < thr —
// equivalently the index of the first lane with dist ≥ thr, or len(dist)
// when none reaches the threshold. A tight forward scan rather than a
// binary search: callers (the wildcard gallop merge, block kernels)
// consume the returned prefix anyway, so the scan cost is amortized by
// the copy and the branch-predictable loop auto-vectorizes.
func FilterDistGE(dist []int32, thr int32) int {
	for i, d := range dist {
		if d >= thr {
			return i
		}
	}
	return len(dist)
}

// firstTrue returns the index of the first set lane of a flag column, or
// -1. The columnar D derive uses it to find the first direct edge.
func firstTrue(flags []bool) int {
	for i, f := range flags {
		if f {
			return i
		}
	}
	return -1
}

// colTab is the carved columnar image of one (α, β) table: targets[r] is
// the r-th target node (ascending), and its incoming lanes are
// [starts[r], starts[r+1]) in the from/dist/direct columns. Lanes within
// a span are (Dist, From)-sorted — the closure's canonical (To, Dist,
// From) order delivers both properties for free. Immutable once
// published.
type colTab struct {
	targets []int32
	starts  []int32 // len(targets)+1
	from    []int32
	dist    []int32
	direct  []bool
}

// span returns v's lane range, empty when v has no incoming entries.
func (t *colTab) span(v int32) (lo, hi int32) {
	if t == nil {
		return 0, 0
	}
	i := sort.Search(len(t.targets), func(i int) bool { return t.targets[i] >= v })
	if i == len(t.targets) || t.targets[i] != v {
		return 0, 0
	}
	return t.starts[i], t.starts[i+1]
}

// view returns v's incoming list as a column view.
func (t *colTab) view(v int32) EdgeCols {
	lo, hi := t.span(v)
	if lo == hi {
		return EdgeCols{}
	}
	return EdgeCols{From: t.from[lo:hi], Dist: t.dist[lo:hi], Direct: t.direct[lo:hi]}
}

// newColTab allocates the columns of an n-lane carve; set fills them
// lane by lane and finish closes the last target span.
func newColTab(n int) *colTab {
	if n == 0 {
		return &colTab{}
	}
	return &colTab{
		from:   make([]int32, n),
		dist:   make([]int32, n),
		direct: make([]bool, n),
	}
}

// set writes lane i, opening a new target span when to differs from the
// previous lane's. Lanes must arrive in the closure's canonical
// (To, Dist, From) order, so each target's lanes are one contiguous,
// (Dist, From)-sorted run.
func (t *colTab) set(i int, from, to, dist int32, direct bool) {
	if i == 0 || to != t.targets[len(t.targets)-1] {
		t.targets = append(t.targets, to)
		t.starts = append(t.starts, int32(i))
	}
	t.from[i], t.dist[i], t.direct[i] = from, dist, direct
}

// finish appends the closing span bound.
func (t *colTab) finish() {
	if len(t.from) > 0 {
		t.starts = append(t.starts, int32(len(t.from)))
	}
}

// mergeAllLabels derives the all-label incoming column view of v as a
// galloping k-way merge of the per-label spans, which are each already
// (Dist, From)-sorted. Each round picks the source whose head lane is
// the (Dist, From) minimum and bulk-copies its run of lanes strictly
// below every other head's distance — found by the FilterDistGE threshold
// kernel — so long sorted runs move as three column copies. From values
// are globally unique across sources for a fixed target (a source label
// determines its table), so the (Dist, From) order is total and the
// merge deterministic.
func (s *Store) mergeAllLabels(v int32, tr *obs.Span) EdgeCols {
	s.lay.carveTargets(s.lay.g.Label(v), tr)
	var srcs []EdgeCols
	for a := int32(0); int(a) < s.lay.g.NumLabels(); a++ {
		if ec := s.lay.colsFor(a, v, tr); ec.Len() > 0 {
			srcs = append(srcs, ec)
		}
	}
	switch len(srcs) {
	case 0:
		return EdgeCols{}
	case 1:
		// A single source's view is immutable and already in merge order;
		// share it without copying.
		return srcs[0]
	}
	total := 0
	for _, ec := range srcs {
		total += ec.Len()
	}
	out := EdgeCols{
		From:   make([]int32, 0, total),
		Dist:   make([]int32, 0, total),
		Direct: make([]bool, 0, total),
	}
	pos := make([]int, len(srcs))
	for len(out.From) < total {
		// Pick the source with the minimum (Dist, From) head.
		best := -1
		var bd, bf int32
		for i, ec := range srcs {
			if pos[i] >= ec.Len() {
				continue
			}
			d, f := ec.Dist[pos[i]], ec.From[pos[i]]
			if best < 0 || d < bd || (d == bd && f < bf) {
				best, bd, bf = i, d, f
			}
		}
		// Find the lowest competing head distance.
		competing := false
		var cd int32
		for i, ec := range srcs {
			if i == best || pos[i] >= ec.Len() {
				continue
			}
			if d := ec.Dist[pos[i]]; !competing || d < cd {
				competing, cd = true, d
			}
		}
		ec := srcs[best]
		lo := pos[best]
		n := ec.Len() - lo
		if competing {
			// Lanes strictly below the best competitor are safe to move in
			// bulk; a head that ties the competitor still moves alone (it
			// won the (Dist, From) comparison).
			if k := FilterDistGE(ec.Dist[lo:], cd); k > 0 {
				n = k
			} else {
				n = 1
			}
		}
		out.From = append(out.From, ec.From[lo:lo+n]...)
		out.Dist = append(out.Dist, ec.Dist[lo:lo+n]...)
		out.Direct = append(out.Direct, ec.Direct[lo:lo+n]...)
		pos[best] += n
	}
	return out
}
