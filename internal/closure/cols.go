package closure

// Cols is a structure-of-arrays view of one label-pair table: lane i of the
// view is the entry {From[i], To[i], Dist[i]}, and lanes appear in the same
// canonical (To, Dist, From) order Table returns. The three slices always
// have equal length and are shared with the source — callers must not
// modify them. A zero Cols (all slices nil) is the empty table.
//
// KTPMSNAP2 stores tables in exactly this layout, so on an mmap-mode
// snapshot a Cols is served zero-copy from the mapping, and the store
// carves its per-target columns from it without a row-major detour.
type Cols struct {
	From, To, Dist []int32
}

// Len returns the number of lanes (entries) in the view.
func (c Cols) Len() int { return len(c.To) }

// At reassembles lane i as a row-major Entry.
func (c Cols) At(i int) Entry {
	return Entry{From: c.From[i], To: c.To[i], Dist: c.Dist[i]}
}

// Entries returns every lane as a fresh row-major slice, nil when the
// view is empty.
func (c Cols) Entries() []Entry {
	if c.Len() == 0 {
		return nil
	}
	out := make([]Entry, c.Len())
	for i := range out {
		out[i] = c.At(i)
	}
	return out
}

// colsFromEntries transposes rows into dst's backing arrays when they are
// large enough, allocating exactly len(rows) lanes (one array for all
// three columns) otherwise, and returns the filled view. Passing the
// previous result back in reuses it as scratch; passing Cols{} yields an
// owned copy.
func colsFromEntries(dst Cols, rows []Entry) Cols {
	n := len(rows)
	if cap(dst.To) < n || cap(dst.Dist) < n || cap(dst.From) < n {
		lanes := make([]int32, 3*n)
		dst = Cols{From: lanes[:n:n], To: lanes[n : 2*n : 2*n], Dist: lanes[2*n:]}
	}
	dst.From, dst.To, dst.Dist = dst.From[:n], dst.To[:n], dst.Dist[:n]
	for i, e := range rows {
		dst.From[i], dst.To[i], dst.Dist[i] = e.From, e.To, e.Dist
	}
	return dst
}

// ColumnSource is a TableSource whose native representation is columns:
// a Snapshot, and a MergedSource over any base. TableCols returns the
// L^α_β table in canonical (To, Dist, From) lane order; the zero Cols
// means the table is empty or absent. Readers that can consume columns
// test for this interface and read TableCols; on these sources Table is
// only a per-call transpose. The in-memory *Closure is row-major and does
// not implement it.
type ColumnSource interface {
	TableSource
	TableCols(alpha, beta int32) Cols
}
