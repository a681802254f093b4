package closure

// Cols is a structure-of-arrays view of one label-pair table: lane i of the
// view is the entry {From[i], To[i], Dist[i]}, and lanes appear in the same
// canonical (To, Dist, From) order Table returns. The three slices always
// have equal length and are shared with the source — callers must not
// modify them. A zero Cols (all slices nil) is the empty table.
//
// KTPMSNAP2 stores tables in exactly this layout, so on an mmap-mode v2
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

// AppendEntries appends every lane to dst in order as row-major entries.
func (c Cols) AppendEntries(dst []Entry) []Entry {
	for i := range c.To {
		dst = append(dst, Entry{From: c.From[i], To: c.To[i], Dist: c.Dist[i]})
	}
	return dst
}

// ColumnSource is a TableSource whose native representation is columns —
// a Snapshot over a KTPMSNAP2 file. TableCols returns the L^α_β table as
// columns in canonical (To, Dist, From) lane order; the zero Cols means
// the table is empty or absent. ColsNative reports whether TableCols is
// actually served: a Snapshot implements the method set for either
// format, but only a v2 file has columns to serve.
type ColumnSource interface {
	TableSource
	ColsNative() bool
	TableCols(alpha, beta int32) Cols
}

// NativeCols returns src as a ColumnSource when column views are its
// native representation. Iteration helpers use it to walk the layout that
// is already resident: on such a source Table() would materialize and
// cache a row-major copy of every table touched, while TableCols is
// (under mmap) a zero-copy view. Every other source is walked by rows.
func NativeCols(src TableSource) (ColumnSource, bool) {
	cs, ok := src.(ColumnSource)
	return cs, ok && cs.ColsNative()
}
