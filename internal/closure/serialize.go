package closure

import (
	"encoding/binary"
	"fmt"
	"io"

	"ktpm/internal/graph"
)

// Fixed-width column codecs shared by the snapshot writer and reader
// (snapshot.go), plus the per-table validation every reader runs before
// publishing a table.

// colChunk is the scratch granularity of the streaming column writer:
// values are encoded through a buffer of at most this many, bounding
// peak scratch memory at 256 KB regardless of table size.
const colChunk = 1 << 16

// writeCol streams col to w as contiguous little-endian int32s through
// buf (grown to at most colChunk×4 bytes), returning the possibly-grown
// buffer.
func writeCol(w io.Writer, col []int32, buf []byte) ([]byte, error) {
	for len(col) > 0 {
		n := min(len(col), colChunk)
		if cap(buf) < n*4 {
			buf = make([]byte, n*4)
		}
		buf = buf[:n*4]
		for i, v := range col[:n] {
			binary.LittleEndian.PutUint32(buf[i*4:], uint32(v))
		}
		if _, err := w.Write(buf); err != nil {
			return buf, err
		}
		col = col[n:]
	}
	return buf, nil
}

// decodeInt32ColInto decodes len(dst) little-endian int32s from src.
func decodeInt32ColInto(src []byte, dst []int32) {
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(src[i*4:]))
	}
}

// validateCols checks every lane of one table against the graph:
// in-range endpoints, positive distance, and labels agreeing with the
// table's (alpha, beta) directory key. It runs as per-column passes,
// each a tight scan over one contiguous []int32.
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
