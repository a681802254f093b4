package store

import (
	"testing"

	"ktpm/internal/closure"
	"ktpm/internal/gen"
	"ktpm/internal/graph"
	"ktpm/internal/label"
)

// closureOf computes the full closure of g.
func closureOf(t *testing.T, g *graph.Graph) *closure.Closure {
	t.Helper()
	return closure.Compute(g, closure.Options{})
}

func TestFilterDistGE(t *testing.T) {
	cases := []struct {
		dist []int32
		thr  int32
		want int
	}{
		{nil, 5, 0},
		{[]int32{1, 2, 3}, 0, 0},
		{[]int32{1, 2, 3}, 2, 1},
		{[]int32{1, 2, 3}, 3, 2},
		{[]int32{1, 2, 3}, 4, 3},
		{[]int32{2, 2, 2}, 2, 0},
		{[]int32{1, 1, 5, 5}, 5, 2},
	}
	for _, tc := range cases {
		if got := FilterDistGE(tc.dist, tc.thr); got != tc.want {
			t.Errorf("FilterDistGE(%v, %d) = %d, want %d", tc.dist, tc.thr, got, tc.want)
		}
	}
}

func TestFirstTrue(t *testing.T) {
	if got := firstTrue(nil); got != -1 {
		t.Errorf("firstTrue(nil) = %d, want -1", got)
	}
	if got := firstTrue([]bool{false, false, true, true}); got != 2 {
		t.Errorf("firstTrue = %d, want 2", got)
	}
	if got := firstTrue([]bool{false, false}); got != -1 {
		t.Errorf("firstTrue = %d, want -1", got)
	}
}

// readList pulls every block of (alpha, v) through a fresh handle,
// concatenated in order.
func readList(s *Store, alpha, v int32) []edge {
	lh := s.OpenList(alpha, v)
	var all []edge
	for i := 0; ; i++ {
		bc, last := lh.BlockCols(i)
		all = append(all, lanes(bc)...)
		if last {
			return all
		}
	}
}

// TestColumnarWildcardMergeShared pins that the galloping wildcard merge
// publishes into the shared plane: the second resolution of the same
// merged list returns the identical backing columns, and replicas share
// them too.
func TestColumnarWildcardMergeShared(t *testing.T) {
	g := gen.ErdosRenyi(30, 120, 4, 9)
	c := closureOf(t, g)
	s := New(c, 4)
	var v int32 = -1
	for u := int32(0); int(u) < g.NumNodes(); u++ {
		if len(readList(s, label.Wildcard, u)) > 1 {
			v = u
			break
		}
	}
	if v < 0 {
		t.Skip("no node with a multi-entry wildcard list")
	}
	a := s.incoming(label.Wildcard, v, nil)
	b := s.incoming(label.Wildcard, v, nil)
	if len(a.From) == 0 || &a.From[0] != &b.From[0] {
		t.Fatal("second wildcard resolution did not share the merged columns")
	}
	r := s.Replica()
	rc := r.incoming(label.Wildcard, v, nil)
	if &rc.From[0] != &a.From[0] {
		t.Fatal("replica did not share the merged columns")
	}
}

// TestOpenListResolvesOnce pins single resolution per handle: a handle covering a multi-block list costs the
// same number of table reads as a single block load used to, and block
// reads are counted per block served, not per probe.
func TestOpenListResolvesOnce(t *testing.T) {
	g, c := smallGraph(t)
	s := New(c, 1) // one entry per block: the a->d4 list has 2 blocks
	a, d := lbl(g, "a"), int32(4)
	s.ResetCounters()
	lh := s.OpenList(a, d)
	if lh.Len() != 2 || lh.NumBlocks() != 2 {
		t.Fatalf("handle len/blocks = %d/%d, want 2/2", lh.Len(), lh.NumBlocks())
	}
	if _, last := lh.BlockCols(0); last {
		t.Fatal("block 0 reported last of 2")
	}
	if _, last := lh.BlockCols(1); !last {
		t.Fatal("block 1 not last")
	}
	cnt := s.Counters()
	if cnt.BlocksRead != 2 || cnt.EntriesRead != 2 {
		t.Fatalf("counters after handle drain = %+v, want 2 blocks / 2 entries", cnt)
	}
}
