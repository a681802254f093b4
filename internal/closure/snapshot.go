package closure

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"ktpm/internal/graph"
)

// KTPMSNAP1 is the page-aligned, offset-indexed snapshot format: a
// self-contained image of one graph plus its transitive closure that can
// be served straight off the file without parsing it at open time. All
// integers are little-endian.
//
//	[0,10)   magic "KTPMSNAP1\n"
//	[10,14)  uint32 version (1)
//	[14,18)  uint32 pageSize (alignment unit of the directory and payload
//	         sections; writers use snapPageSize)
//	[18,26)  int64 numTables
//	[26,34)  int64 numEntries
//	[34,42)  int64 graphOff   — graph text section (graph.Encode format)
//	[42,50)  int64 graphLen
//	[50,58)  int64 dirOff     — table directory, page-aligned
//	[58,64)  reserved (zero)
//	...      graph text
//	dirOff   numTables × 24-byte rows {int32 alpha, int32 beta,
//	         int64 off, int64 count}, sorted by (alpha, beta)
//	...      table payloads: count × EntrySize fixed-width entries per
//	         table; the payload section starts page-aligned and every
//	         table offset is 16-byte aligned, so an mmap of the file can
//	         serve []Entry views in place (entries need 4-byte alignment)
//
// The directory up front lets a reader open the snapshot in O(directory)
// time and seek (or map) exactly the tables a workload touches, instead
// of parsing the file front to back.
//
// KTPMSNAP2 is the columnar (structure-of-arrays) variant: identical
// header (magic "KTPMSNAP2\n", version 2) and directory, but each table
// payload stores the three entry fields as separate contiguous
// little-endian int32 columns instead of interleaved 12-byte rows:
//
//	d.off                 to[count]    — target nodes (the carve key)
//	d.off + distRel       dist[count]  — δmin values
//	d.off + fromRel       from[count]  — source nodes
//
// where distRel/fromRel round each preceding column up to snapTableAlign,
// so every column starts 16-byte aligned and an mmap of the file serves
// zero-copy []int32 views per column (colsSpan computes the offsets; lane
// i across the three columns is entry i, in the same canonical (To, Dist,
// From) order as v1). The store carves a v2 table straight from these
// columns, and a v1 table by one pass over its rows; v1 files keep
// opening unchanged, and readers pick the layout by magic alone.

var (
	snapMagic  = []byte("KTPMSNAP1\n")
	snapMagic2 = []byte("KTPMSNAP2\n")
)

const (
	snapVersion    = 1
	snapVersion2   = 2
	snapPageSize   = 4096
	snapHeaderSize = 64
	snapDirEntSize = 24
	snapTableAlign = 16
)

// colsSpan returns the layout of one KTPMSNAP2 table payload holding count
// entries: the offsets of the dist and from columns relative to the table
// offset, and the total payload span. Every column starts snapTableAlign-
// aligned; total ≥ count×EntrySize always holds, which the open-time
// bounds checks rely on to stay overflow-safe.
func colsSpan(count int64) (distRel, fromRel, total int64) {
	col := alignUp(count*4, snapTableAlign)
	distRel = col
	fromRel = 2 * col
	total = fromRel + count*4
	return
}

// SnapMode selects how OpenSnapshotFile backs table reads.
type SnapMode int

const (
	// SnapEager decodes every table into memory at open — the fully
	// resident behavior.
	SnapEager SnapMode = iota
	// SnapLazy reads only the header, graph, and directory at open; a
	// table's payload is seek-read and decoded the first time it is
	// asked for.
	SnapLazy
	// SnapMMap maps the file and serves zero-copy []Entry views over the
	// mapping (no heap copy of payloads). On platforms without mmap — or
	// hosts whose native layout disagrees with the on-disk one — it
	// degrades to SnapLazy; Snapshot.Mode reports what actually happened.
	SnapMMap
)

// String returns the CLI spelling ("eager", "lazy", "mmap").
func (m SnapMode) String() string {
	switch m {
	case SnapEager:
		return "eager"
	case SnapLazy:
		return "lazy"
	case SnapMMap:
		return "mmap"
	}
	return fmt.Sprintf("SnapMode(%d)", int(m))
}

// entryViewOK reports whether a raw on-disk payload can be reinterpreted
// as []Entry in place: the host must be little-endian and Entry's memory
// layout must match the encoded triple exactly.
var entryViewOK = func() bool {
	var one uint16 = 1
	little := *(*byte)(unsafe.Pointer(&one)) == 1
	var e Entry
	return little &&
		unsafe.Sizeof(e) == EntrySize &&
		unsafe.Offsetof(e.To) == 4 &&
		unsafe.Offsetof(e.Dist) == 8
}()

// snapDirEnt is one decoded directory row.
type snapDirEnt struct {
	alpha, beta int32
	off         int64
	count       int64
}

// Snapshot is an open KTPMSNAP1 file: a TableSource whose tables fault in
// on first use (lazy, mmap) or are pre-faulted at open (eager). All
// methods are safe for concurrent use; a faulted table is decoded (or
// mapped and validated) exactly once and then served lock-free, so one
// Snapshot can back every shard replica of a database. Close releases
// the file and any mapping — only after all queries against the snapshot
// have stopped, since mmap-mode []Entry views point into the mapping.
type Snapshot struct {
	g       *graph.Graph
	dir     []snapDirEnt
	mode    SnapMode // effective mode, after any mmap fallback
	version uint32   // 1 (row-major) or 2 (columnar), from the magic

	// tabs[i] is the published []Entry of dir[i], nil until faulted. In
	// mmap mode (v1) the slice is a zero-copy view over data; otherwise a
	// decoded heap copy. On a v2 file it is a row-major materialization of
	// the columns, built on demand for TableSource compatibility.
	tabs []atomic.Pointer[[]Entry]
	// cols[i] is the published column view of dir[i]: the faulted on-disk
	// layout of a v2 file (zero-copy per column under mmap). Never set on
	// a v1 file, which has no columns to serve.
	cols []atomic.Pointer[Cols]
	mu   sync.Mutex // serializes faults; reads stay lock-free

	f    *os.File    // lazy backing; nil once eager load completes
	r    io.ReaderAt // == f, kept as an interface for tests
	data []byte      // mmap backing; nil in other modes
	size int64       // file size

	numEntries   int64
	tablesLoaded atomic.Int64
	loadErr      atomic.Pointer[error] // sticky first fault-time failure

	// tableCRCs holds the per-table payload CRC32C values from the
	// checksum trailer (checksum.go), directory order; nil on
	// pre-checksum files. Verified as each table faults.
	tableCRCs []uint32
}

var (
	_ TableSource  = (*Snapshot)(nil)
	_ ColumnSource = (*Snapshot)(nil)
)

// WriteSnapshot writes src — graph and closure — as a KTPMSNAP1 (row-major)
// snapshot. Any TableSource serves, so an existing database (in-memory or
// itself snapshot-backed) converts without recomputing the closure; on a
// lazy source this faults every table. The directory is sorted by
// (alpha, beta), making the output deterministic for a given closure.
func WriteSnapshot(w io.Writer, src TableSource) error {
	return writeSnapshot(w, src, snapVersion)
}

// WriteSnapshotV2 writes src as a KTPMSNAP2 columnar snapshot: same
// directory, per-table to[]/dist[]/from[] columns. Deterministic like
// WriteSnapshot, and byte-for-byte the same logical closure — only the
// payload transpose differs.
func WriteSnapshotV2(w io.Writer, src TableSource) error {
	return writeSnapshot(w, src, snapVersion2)
}

func writeSnapshot(w io.Writer, src TableSource, version uint32) error {
	g := src.Graph()
	var gbuf bytes.Buffer
	if err := graph.Encode(&gbuf, g); err != nil {
		return err
	}

	dir := make([]snapDirEnt, 0, src.NumTables())
	src.TableLens(func(alpha, beta int32, count int) bool {
		dir = append(dir, snapDirEnt{alpha: alpha, beta: beta, count: int64(count)})
		return true
	})
	sort.Slice(dir, func(i, j int) bool {
		if dir[i].alpha != dir[j].alpha {
			return dir[i].alpha < dir[j].alpha
		}
		return dir[i].beta < dir[j].beta
	})

	graphOff := int64(snapHeaderSize)
	dirOff := alignUp(graphOff+int64(gbuf.Len()), snapPageSize)
	off := alignUp(dirOff+int64(len(dir))*snapDirEntSize, snapPageSize)
	var numEntries int64
	for i := range dir {
		dir[i].off = off
		if version == snapVersion2 {
			_, _, total := colsSpan(dir[i].count)
			off += total
		} else {
			off += dir[i].count * EntrySize
		}
		off = alignUp(off, snapTableAlign)
		numEntries += dir[i].count
	}

	bw := bufio.NewWriterSize(w, 1<<20)
	// Payload writes flow through cw so per-table CRCs for the checksum
	// trailer are computed as the bytes stream out, never buffered.
	cw := &crcWriter{w: bw}
	tableCRCs := make([]uint32, len(dir))
	hdr := make([]byte, snapHeaderSize)
	if version == snapVersion2 {
		copy(hdr, snapMagic2)
	} else {
		copy(hdr, snapMagic)
	}
	binary.LittleEndian.PutUint32(hdr[10:14], version)
	binary.LittleEndian.PutUint32(hdr[14:18], snapPageSize)
	binary.LittleEndian.PutUint64(hdr[18:26], uint64(len(dir)))
	binary.LittleEndian.PutUint64(hdr[26:34], uint64(numEntries))
	binary.LittleEndian.PutUint64(hdr[34:42], uint64(graphOff))
	binary.LittleEndian.PutUint64(hdr[42:50], uint64(gbuf.Len()))
	binary.LittleEndian.PutUint64(hdr[50:58], uint64(dirOff))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	headerCRC := crc32.Checksum(hdr, snapCRC)
	graphCRC := crc32.Checksum(gbuf.Bytes(), snapCRC)
	pos := int64(snapHeaderSize)
	pad := func(to int64) error {
		for pos < to {
			n := to - pos
			if n > int64(len(zeroPage)) {
				n = int64(len(zeroPage))
			}
			if _, err := cw.Write(zeroPage[:n]); err != nil {
				return err
			}
			pos += n
		}
		return nil
	}
	if _, err := bw.Write(gbuf.Bytes()); err != nil {
		return err
	}
	pos += int64(gbuf.Len())
	if err := pad(dirOff); err != nil {
		return err
	}
	row := make([]byte, snapDirEntSize)
	var dirCRC uint32
	for _, d := range dir {
		binary.LittleEndian.PutUint32(row[0:4], uint32(d.alpha))
		binary.LittleEndian.PutUint32(row[4:8], uint32(d.beta))
		binary.LittleEndian.PutUint64(row[8:16], uint64(d.off))
		binary.LittleEndian.PutUint64(row[16:24], uint64(d.count))
		dirCRC = crc32.Update(dirCRC, snapCRC, row)
		if _, err := bw.Write(row); err != nil {
			return err
		}
	}
	pos += int64(len(dir)) * snapDirEntSize
	var buf []byte
	for i, d := range dir {
		if err := pad(d.off); err != nil {
			return err
		}
		entries := src.Table(d.alpha, d.beta)
		if int64(len(entries)) != d.count {
			return fmt.Errorf("closure: table (%d,%d) changed size during snapshot write", d.alpha, d.beta)
		}
		// The table's whole payload span — including v2 inter-column
		// padding — feeds its trailer CRC.
		cw.begin()
		var err error
		if version == snapVersion2 {
			// Columns are streamed straight from the row-major entries so
			// the writer never materializes a second copy of the table.
			distRel, fromRel, _ := colsSpan(d.count)
			if buf, err = writeCol(cw, entries, func(e Entry) int32 { return e.To }, buf); err != nil {
				return err
			}
			pos += d.count * 4
			if err = pad(d.off + distRel); err != nil {
				return err
			}
			if buf, err = writeCol(cw, entries, func(e Entry) int32 { return e.Dist }, buf); err != nil {
				return err
			}
			pos += d.count * 4
			if err = pad(d.off + fromRel); err != nil {
				return err
			}
			if buf, err = writeCol(cw, entries, func(e Entry) int32 { return e.From }, buf); err != nil {
				return err
			}
			pos += d.count * 4
		} else {
			if buf, err = writeEntries(cw, entries, buf); err != nil {
				return err
			}
			pos += d.count * EntrySize
		}
		tableCRCs[i] = cw.end()
	}
	if err := writeSnapshotTrailer(bw, pos, headerCRC, graphCRC, dirCRC, tableCRCs); err != nil {
		return err
	}
	return bw.Flush()
}

var zeroPage [snapPageSize]byte

func alignUp(n, align int64) int64 { return (n + align - 1) / align * align }

// OpenSnapshotFile opens a KTPMSNAP1 snapshot written by WriteSnapshot.
// In SnapLazy and SnapMMap modes the work done here is O(header + graph +
// directory): no table payload is read, decoded, or validated until its
// first fault. The directory itself is fully validated — bad magic,
// implausible counts, unsorted rows, and offsets pointing past EOF all
// fail here rather than at query time.
func OpenSnapshotFile(path string, mode SnapMode) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s, err := openSnapshot(f, mode)
	if err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

func openSnapshot(f *os.File, mode SnapMode) (*Snapshot, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	hdr := make([]byte, snapHeaderSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("closure: snapshot header: %w", err)
	}
	var version uint32
	switch {
	case bytes.Equal(hdr[:len(snapMagic)], snapMagic):
		version = snapVersion
	case bytes.Equal(hdr[:len(snapMagic2)], snapMagic2):
		version = snapVersion2
	default:
		return nil, fmt.Errorf("closure: bad snapshot magic %q", hdr[:len(snapMagic)])
	}
	if v := binary.LittleEndian.Uint32(hdr[10:14]); v != version {
		return nil, fmt.Errorf("closure: snapshot version %d disagrees with magic %q", v, hdr[:len(snapMagic)])
	}
	numTables := int64(binary.LittleEndian.Uint64(hdr[18:26]))
	numEntries := int64(binary.LittleEndian.Uint64(hdr[26:34]))
	graphOff := int64(binary.LittleEndian.Uint64(hdr[34:42]))
	graphLen := int64(binary.LittleEndian.Uint64(hdr[42:50]))
	dirOff := int64(binary.LittleEndian.Uint64(hdr[50:58]))
	// Each field is bounded against the file size before it is used in
	// arithmetic, so corrupt headers with huge values cannot overflow a
	// later sum or product into passing a check.
	if graphOff < snapHeaderSize || graphOff > size ||
		graphLen < 0 || graphLen > size-graphOff ||
		dirOff < graphOff+graphLen || dirOff > size ||
		numTables < 0 || numTables > (size-dirOff)/snapDirEntSize ||
		numEntries < 0 {
		return nil, fmt.Errorf("closure: snapshot header out of bounds (size %d)", size)
	}

	g, err := graph.Decode(bufio.NewReader(io.NewSectionReader(f, graphOff, graphLen)))
	if err != nil {
		return nil, fmt.Errorf("closure: snapshot graph section: %w", err)
	}

	dirRaw := make([]byte, numTables*snapDirEntSize)
	if _, err := f.ReadAt(dirRaw, dirOff); err != nil {
		return nil, fmt.Errorf("closure: snapshot directory: %w", err)
	}
	dir := make([]snapDirEnt, numTables)
	payloadStart := dirOff + numTables*snapDirEntSize
	payloadEnd := payloadStart // end of the last table payload
	var total int64
	numLabels := int32(g.NumLabels())
	for i := range dir {
		row := dirRaw[i*snapDirEntSize:]
		d := snapDirEnt{
			alpha: int32(binary.LittleEndian.Uint32(row[0:4])),
			beta:  int32(binary.LittleEndian.Uint32(row[4:8])),
			off:   int64(binary.LittleEndian.Uint64(row[8:16])),
			count: int64(binary.LittleEndian.Uint64(row[16:24])),
		}
		if d.alpha < 0 || d.alpha >= numLabels || d.beta < 0 || d.beta >= numLabels {
			return nil, fmt.Errorf("closure: snapshot directory row %d: label pair (%d,%d) outside graph's %d labels", i, d.alpha, d.beta, numLabels)
		}
		if i > 0 && !(dir[i-1].alpha < d.alpha || (dir[i-1].alpha == d.alpha && dir[i-1].beta < d.beta)) {
			return nil, fmt.Errorf("closure: snapshot directory not sorted at row %d", i)
		}
		// count*EntrySize is overflow-safe only after bounding count by
		// the remaining file size.
		if d.off < payloadStart || d.off > size || d.count < 0 || d.count > (size-d.off)/EntrySize {
			return nil, fmt.Errorf("closure: snapshot directory row %d: table (%d,%d) at [%d, +%d entries) outside file of %d bytes", i, d.alpha, d.beta, d.off, d.count, size)
		}
		span := d.count * EntrySize
		if version == snapVersion2 {
			// The columnar payload is wider than count×EntrySize by the
			// inter-column alignment padding; the v1-style bound above makes
			// colsSpan overflow-safe, and this makes it exact.
			_, _, span = colsSpan(d.count)
			if span > size-d.off {
				return nil, fmt.Errorf("closure: snapshot directory row %d: columnar table (%d,%d) at [%d, +%d bytes) outside file of %d bytes", i, d.alpha, d.beta, d.off, span, size)
			}
		}
		if end := d.off + span; end > payloadEnd {
			payloadEnd = end
		}
		if d.off%snapTableAlign != 0 {
			// The format guarantees 16-byte-aligned tables; an unaligned
			// offset would make the mmap mode's in-place []Entry view
			// misaligned, so it is structural corruption caught at open.
			return nil, fmt.Errorf("closure: snapshot directory row %d: table (%d,%d) offset %d not %d-byte aligned", i, d.alpha, d.beta, d.off, snapTableAlign)
		}
		dir[i] = d
		total += d.count
	}
	if total != numEntries {
		return nil, fmt.Errorf("closure: snapshot directory counts sum to %d, header says %d", total, numEntries)
	}

	// Checksum trailer (checksum.go): header/graph/directory CRCs verify
	// here; per-table CRCs are kept for fault-time verification. Old
	// files without the trailer open with tableCRCs == nil.
	tableCRCs, _, err := readSnapshotTrailer(f, size, payloadEnd, hdr, dirRaw, graphOff, graphLen, int(numTables))
	if err != nil {
		return nil, err
	}

	s := &Snapshot{
		g:          g,
		dir:        dir,
		mode:       mode,
		version:    version,
		tabs:       make([]atomic.Pointer[[]Entry], numTables),
		cols:       make([]atomic.Pointer[Cols], numTables),
		f:          f,
		r:          f,
		size:       size,
		numEntries: numEntries,
		tableCRCs:  tableCRCs,
	}
	if mode == SnapMMap {
		// entryViewOK is checked before mapping: a mapping that cannot be
		// reinterpreted in place would only leak address space.
		if !entryViewOK {
			s.mode = SnapLazy
		} else if data, err := mmapFile(f, size); err != nil {
			// Portable fallback: same lazy faulting, through ReadAt.
			s.mode = SnapLazy
		} else {
			s.data = data
			// The mapping outlives the descriptor; close it so lazy-mode
			// resources and mmap-mode resources never mix.
			s.f.Close()
			s.f, s.r = nil, nil
		}
	}
	if mode == SnapEager {
		for i := range s.dir {
			// On a v2 file the resident form is the columns; row-major
			// views materialize from them on demand without the file.
			var err error
			if version == snapVersion2 {
				_, err = s.loadCols(i)
			} else {
				_, err = s.load(i)
			}
			if err != nil {
				s.Close()
				return nil, err
			}
		}
		s.f.Close()
		s.f, s.r = nil, nil
	}
	return s, nil
}

// find binary-searches the directory; -1 when the pair has no table.
func (s *Snapshot) find(alpha, beta int32) int {
	i := sort.Search(len(s.dir), func(i int) bool {
		d := &s.dir[i]
		return d.alpha > alpha || (d.alpha == alpha && d.beta >= beta)
	})
	if i < len(s.dir) && s.dir[i].alpha == alpha && s.dir[i].beta == beta {
		return i
	}
	return -1
}

// load faults directory entry i as a row-major table: reads (or maps) its
// payload, validates every entry against the graph, and publishes the
// table. Later calls are a single atomic load. On a v2 file the columns
// are the faulted form and the row-major view is transposed from them
// (already-validated), so Table keeps working on columnar snapshots.
func (s *Snapshot) load(i int) ([]Entry, error) {
	if p := s.tabs[i].Load(); p != nil {
		return *p, nil
	}
	if s.version == snapVersion2 {
		c, err := s.loadCols(i)
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if p := s.tabs[i].Load(); p != nil {
			return *p, nil
		}
		entries := c.AppendEntries(make([]Entry, 0, c.Len()))
		s.tabs[i].Store(&entries)
		return entries, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if p := s.tabs[i].Load(); p != nil {
		return *p, nil
	}
	d := &s.dir[i]
	var entries []Entry
	switch {
	case s.data != nil:
		// Zero-copy: the published table is a view over the mapping. The
		// trailer CRC runs over the same mapped bytes before publication.
		if err := s.verifyTableCRC(i, s.data[d.off:d.off+d.count*EntrySize]); err != nil {
			return nil, fmt.Errorf("closure: snapshot table (%d,%d): %w", d.alpha, d.beta, err)
		}
		if d.count > 0 {
			entries = unsafe.Slice((*Entry)(unsafe.Pointer(&s.data[d.off])), d.count)
		}
	case s.r != nil:
		raw := make([]byte, d.count*EntrySize)
		if _, err := s.r.ReadAt(raw, d.off); err != nil {
			return nil, fmt.Errorf("closure: snapshot table (%d,%d): %w", d.alpha, d.beta, err)
		}
		if err := s.verifyTableCRC(i, raw); err != nil {
			return nil, fmt.Errorf("closure: snapshot table (%d,%d): %w", d.alpha, d.beta, err)
		}
		entries = make([]Entry, d.count)
		decodeEntriesInto(raw, entries)
	default:
		return nil, fmt.Errorf("closure: snapshot is closed")
	}
	if err := validateEntries(s.g, d.alpha, d.beta, entries); err != nil {
		return nil, fmt.Errorf("closure: snapshot table (%d,%d): %w", d.alpha, d.beta, err)
	}
	s.tabs[i].Store(&entries)
	s.tablesLoaded.Add(1)
	return entries, nil
}

// loadCols faults directory entry i of a v2 file as its on-disk column
// view: under mmap each column is a zero-copy []int32 view over the
// mapping (column starts are snapTableAlign-aligned by construction, so
// the reinterpretation is always aligned); in lazy mode the three columns
// are read and decoded in one ReadAt. Validation runs per column
// (validateCols) before the view is published.
func (s *Snapshot) loadCols(i int) (Cols, error) {
	if p := s.cols[i].Load(); p != nil {
		return *p, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if p := s.cols[i].Load(); p != nil {
		return *p, nil
	}
	d := &s.dir[i]
	distRel, fromRel, total := colsSpan(d.count)
	var c Cols
	switch {
	case s.data != nil:
		// The trailer CRC covers the full columnar span, padding included,
		// straight off the mapping before the views are published.
		if err := s.verifyTableCRC(i, s.data[d.off:d.off+total]); err != nil {
			return Cols{}, fmt.Errorf("closure: snapshot table (%d,%d): %w", d.alpha, d.beta, err)
		}
		if d.count > 0 {
			c.To = unsafe.Slice((*int32)(unsafe.Pointer(&s.data[d.off])), d.count)
			c.Dist = unsafe.Slice((*int32)(unsafe.Pointer(&s.data[d.off+distRel])), d.count)
			c.From = unsafe.Slice((*int32)(unsafe.Pointer(&s.data[d.off+fromRel])), d.count)
		}
	case s.r != nil:
		raw := make([]byte, total)
		if _, err := s.r.ReadAt(raw, d.off); err != nil {
			return Cols{}, fmt.Errorf("closure: snapshot table (%d,%d): %w", d.alpha, d.beta, err)
		}
		if err := s.verifyTableCRC(i, raw); err != nil {
			return Cols{}, fmt.Errorf("closure: snapshot table (%d,%d): %w", d.alpha, d.beta, err)
		}
		c.To = make([]int32, d.count)
		c.Dist = make([]int32, d.count)
		c.From = make([]int32, d.count)
		decodeInt32ColInto(raw[0:], c.To)
		decodeInt32ColInto(raw[distRel:], c.Dist)
		decodeInt32ColInto(raw[fromRel:], c.From)
	default:
		return Cols{}, fmt.Errorf("closure: snapshot is closed")
	}
	if err := validateCols(s.g, d.alpha, d.beta, c); err != nil {
		return Cols{}, fmt.Errorf("closure: snapshot table (%d,%d): %w", d.alpha, d.beta, err)
	}
	s.cols[i].Store(&c)
	s.tablesLoaded.Add(1)
	return c, nil
}

// table is the error-swallowing load used behind TableSource: the
// interface has no error channel, so a fault-time failure (I/O error or
// payload corruption, both impossible once a table is resident) records a
// sticky error readable via Err and serves the table as empty.
func (s *Snapshot) table(i int) []Entry {
	entries, err := s.load(i)
	if err != nil {
		s.loadErr.CompareAndSwap(nil, &err)
		return nil
	}
	return entries
}

// tableCols is the error-swallowing column fault used behind
// ColumnSource, mirroring table: a fault-time failure records a sticky
// error readable via Err and serves the table as empty.
func (s *Snapshot) tableCols(i int) Cols {
	c, err := s.loadCols(i)
	if err != nil {
		s.loadErr.CompareAndSwap(nil, &err)
		return Cols{}
	}
	return c
}

// Err returns the first fault-time load failure, or nil. Open-time
// validation catches structural corruption, so a non-nil Err means the
// file changed or failed underneath an open lazy/mmap snapshot.
func (s *Snapshot) Err() error {
	if p := s.loadErr.Load(); p != nil {
		return *p
	}
	return nil
}

// Graph returns the graph decoded from the snapshot's graph section.
func (s *Snapshot) Graph() *graph.Graph { return s.g }

// NumEntries returns the total closure size recorded in the header.
func (s *Snapshot) NumEntries() int64 { return s.numEntries }

// NumTables returns the directory size.
func (s *Snapshot) NumTables() int { return len(s.dir) }

// TableLen answers from the directory without faulting the table.
func (s *Snapshot) TableLen(alpha, beta int32) int {
	if i := s.find(alpha, beta); i >= 0 {
		return int(s.dir[i].count)
	}
	return 0
}

// TableLens iterates the directory without faulting any table.
func (s *Snapshot) TableLens(fn func(alpha, beta int32, count int) bool) {
	for i := range s.dir {
		if !fn(s.dir[i].alpha, s.dir[i].beta, int(s.dir[i].count)) {
			return
		}
	}
}

// Table returns the L^α_β entries, faulting them on first use.
func (s *Snapshot) Table(alpha, beta int32) []Entry {
	i := s.find(alpha, beta)
	if i < 0 {
		return nil
	}
	return s.table(i)
}

// TableCols returns the L^α_β table of a v2 snapshot as a column view,
// faulting it on first use; in mmap mode the columns are zero-copy views
// over the mapping. A v1 snapshot has no columns (ColsNative is false)
// and always returns the zero Cols: read it through Table.
func (s *Snapshot) TableCols(alpha, beta int32) Cols {
	i := s.find(alpha, beta)
	if i < 0 || s.version != snapVersion2 {
		return Cols{}
	}
	return s.tableCols(i)
}

// Tables calls fn for every table in directory order, faulting each.
func (s *Snapshot) Tables(fn func(alpha, beta int32, entries []Entry) bool) {
	for i := range s.dir {
		if !fn(s.dir[i].alpha, s.dir[i].beta, s.table(i)) {
			return
		}
	}
}

// ComputeStats summarizes the snapshot from its directory alone.
func (s *Snapshot) ComputeStats() Stats {
	st := Stats{
		Entries:   s.numEntries,
		Tables:    len(s.dir),
		SizeBytes: s.numEntries * EntrySize,
	}
	if len(s.dir) > 0 {
		st.Theta = float64(s.numEntries) / float64(len(s.dir))
	}
	for i := range s.dir {
		if int(s.dir[i].count) > st.MaxTable {
			st.MaxTable = int(s.dir[i].count)
		}
	}
	if n := s.g.NumNodes(); n > 0 {
		st.AvgPerNode = float64(s.numEntries) / float64(n)
	}
	return st
}

// Mode returns the effective backing mode: what SnapMMap degraded to when
// the platform cannot map or reinterpret the file in place.
func (s *Snapshot) Mode() SnapMode { return s.mode }

// Version returns the on-disk format version: 1 for row-major KTPMSNAP1,
// 2 for columnar KTPMSNAP2.
func (s *Snapshot) Version() int { return int(s.version) }

// Format returns the CLI/stats spelling of the on-disk format ("v1",
// "v2").
func (s *Snapshot) Format() string { return fmt.Sprintf("v%d", s.version) }

// ColsNative reports whether column views are the snapshot's primary
// representation (KTPMSNAP2): TableCols reads the on-disk columns while
// Table pays a row-major materialization. On a v1 file it is false and
// TableCols serves nothing. See NativeCols.
func (s *Snapshot) ColsNative() bool { return s.version >= 2 }

// TablesLoaded returns how many tables have been faulted so far — the
// counter behind IOStats.SnapshotTablesLoaded. Right after a lazy or
// mmap open it is 0; eager open reports the full directory.
func (s *Snapshot) TablesLoaded() int64 { return s.tablesLoaded.Load() }

// BytesMapped returns the size of the live memory mapping (0 unless the
// effective mode is SnapMMap).
func (s *Snapshot) BytesMapped() int64 { return int64(len(s.data)) }

// Close releases the file handle and any mapping, and drops every
// published table in all modes, so a closed snapshot holds no table
// memory even while something still points at it. It must only be
// called after every query against the snapshot has finished: mmap-mode
// tables are views into the mapping and become invalid here. A table
// asked for after Close is served empty with a sticky Err. Idempotent.
func (s *Snapshot) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Drop the published tables before unmapping, so a (disallowed but
	// cheap to defend) post-Close Table observes the closed state
	// instead of reading unmapped memory.
	for i := range s.tabs {
		s.tabs[i].Store(nil)
	}
	for i := range s.cols {
		s.cols[i].Store(nil)
	}
	var err error
	if s.data != nil {
		err = munmap(s.data)
		s.data = nil
	}
	if s.f != nil {
		if cerr := s.f.Close(); err == nil {
			err = cerr
		}
		s.f, s.r = nil, nil
	}
	return err
}
