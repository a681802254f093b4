package closure

import (
	"encoding/binary"
	"fmt"
	"io"

	"ktpm/internal/graph"
)

// Fixed-width entry and column codecs shared by the snapshot writer and
// reader (snapshot.go), plus the per-table validation every reader runs
// before publishing a table.
//
// Entries are encoded with the manual fixed-width codec below rather than
// binary.Write/binary.Read on the []Entry slice, whose reflection-based
// path walks every struct field of every element.

// entryChunk is the scratch granularity of the streaming codec: entries
// are encoded/decoded through a buffer of at most this many, bounding
// peak scratch memory at ~768 KB regardless of table size.
const entryChunk = 1 << 16

// putEntry encodes e into b[:EntrySize] in the on-disk little-endian
// triple layout.
func putEntry(b []byte, e Entry) {
	binary.LittleEndian.PutUint32(b[0:4], uint32(e.From))
	binary.LittleEndian.PutUint32(b[4:8], uint32(e.To))
	binary.LittleEndian.PutUint32(b[8:12], uint32(e.Dist))
}

// getEntry decodes one entry from b[:EntrySize].
func getEntry(b []byte) Entry {
	return Entry{
		From: int32(binary.LittleEndian.Uint32(b[0:4])),
		To:   int32(binary.LittleEndian.Uint32(b[4:8])),
		Dist: int32(binary.LittleEndian.Uint32(b[8:12])),
	}
}

// writeEntries streams entries to w through buf (grown to at most
// entryChunk×EntrySize), returning the possibly-grown buffer.
func writeEntries(w io.Writer, entries []Entry, buf []byte) ([]byte, error) {
	for len(entries) > 0 {
		n := len(entries)
		if n > entryChunk {
			n = entryChunk
		}
		if cap(buf) < n*EntrySize {
			buf = make([]byte, n*EntrySize)
		}
		buf = buf[:n*EntrySize]
		for i, e := range entries[:n] {
			putEntry(buf[i*EntrySize:], e)
		}
		if _, err := w.Write(buf); err != nil {
			return buf, err
		}
		entries = entries[n:]
	}
	return buf, nil
}

// decodeEntriesInto decodes len(entries) entries from the in-memory
// payload src (len(entries)×EntrySize bytes). Used by the snapshot
// reader, which has the whole payload resident.
func decodeEntriesInto(src []byte, entries []Entry) {
	for i := range entries {
		entries[i] = getEntry(src[i*EntrySize:])
	}
}

// writeCol streams one int32 field of entries — selected by sel — as a
// contiguous little-endian column, chunked through buf like writeEntries.
// The KTPMSNAP2 writer uses it to transpose on the fly without holding a
// second copy of the table.
func writeCol(w io.Writer, entries []Entry, sel func(Entry) int32, buf []byte) ([]byte, error) {
	for len(entries) > 0 {
		n := len(entries)
		if n > entryChunk {
			n = entryChunk
		}
		if cap(buf) < n*4 {
			buf = make([]byte, n*4)
		}
		buf = buf[:n*4]
		for i, e := range entries[:n] {
			binary.LittleEndian.PutUint32(buf[i*4:], uint32(sel(e)))
		}
		if _, err := w.Write(buf); err != nil {
			return buf, err
		}
		entries = entries[n:]
	}
	return buf, nil
}

// decodeInt32ColInto decodes len(dst) little-endian int32s from src.
func decodeInt32ColInto(src []byte, dst []int32) {
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(src[i*4:]))
	}
}

// validateEntries checks every entry of one table against the graph:
// in-range endpoints, positive distance, and labels agreeing with the
// table's (alpha, beta) directory key. Used by the KTPMSNAP1 reader.
func validateEntries(g *graph.Graph, alpha, beta int32, entries []Entry) error {
	n := int32(g.NumNodes())
	for _, e := range entries {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n || e.Dist <= 0 {
			return fmt.Errorf("invalid entry %+v", e)
		}
		if g.Label(e.From) != alpha || g.Label(e.To) != beta {
			return fmt.Errorf("entry %+v labels disagree with graph", e)
		}
	}
	return nil
}

// validateCols is validateEntries for a column view, run as per-column
// passes (each a tight scan over one contiguous []int32) instead of one
// strided row walk. Used by the KTPMSNAP2 reader before publishing a
// faulted column view.
func validateCols(g *graph.Graph, alpha, beta int32, c Cols) error {
	if len(c.From) != len(c.To) || len(c.Dist) != len(c.To) {
		return fmt.Errorf("column lengths disagree: from %d to %d dist %d", len(c.From), len(c.To), len(c.Dist))
	}
	n := int32(g.NumNodes())
	for i, v := range c.From {
		if v < 0 || v >= n || g.Label(v) != alpha {
			return fmt.Errorf("invalid entry %+v", c.At(i))
		}
	}
	for i, v := range c.To {
		if v < 0 || v >= n || g.Label(v) != beta {
			return fmt.Errorf("invalid entry %+v", c.At(i))
		}
	}
	for i, d := range c.Dist {
		if d <= 0 {
			return fmt.Errorf("invalid entry %+v", c.At(i))
		}
	}
	return nil
}
