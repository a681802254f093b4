package closure

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"ktpm/internal/gen"
)

// writeTestSnapshot computes a closure and writes its snapshot to a temp
// file, returning the closure and the path.
func writeTestSnapshot(t *testing.T) (*Closure, string) {
	t.Helper()
	g := gen.ErdosRenyi(60, 220, 6, 11)
	c := Compute(g, Options{})
	path := filepath.Join(t.TempDir(), "c.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshotV2(f, c); err != nil {
		t.Fatalf("WriteSnapshotV2: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return c, path
}

func sameTables(t *testing.T, want TableSource, got TableSource, mode string) {
	t.Helper()
	if got.NumEntries() != want.NumEntries() {
		t.Fatalf("%s: entries %d, want %d", mode, got.NumEntries(), want.NumEntries())
	}
	if got.NumTables() != want.NumTables() {
		t.Fatalf("%s: tables %d, want %d", mode, got.NumTables(), want.NumTables())
	}
	want.Tables(func(alpha, beta int32, entries []Entry) bool {
		if n := got.TableLen(alpha, beta); n != len(entries) {
			t.Fatalf("%s: TableLen(%d,%d) = %d, want %d", mode, alpha, beta, n, len(entries))
		}
		tab := got.Table(alpha, beta)
		if len(tab) != len(entries) {
			t.Fatalf("%s: table (%d,%d): %d entries, want %d", mode, alpha, beta, len(tab), len(entries))
		}
		for i := range entries {
			if tab[i] != entries[i] {
				t.Fatalf("%s: table (%d,%d)[%d]: %v, want %v", mode, alpha, beta, i, tab[i], entries[i])
			}
		}
		return true
	})
}

// assertClosedHoldsNoTables checks that Close dropped every published
// table in mode, so nothing that still points at the Snapshot keeps its
// decoded (eager, lazy) or mapped (mmap) tables reachable.
func assertClosedHoldsNoTables(t *testing.T, s *Snapshot, mode SnapMode) {
	t.Helper()
	for i := range s.dir {
		if s.cols[i].Load() != nil {
			t.Fatalf("%v: table %d still published after Close", mode, i)
		}
	}
	if len(s.dir) > 0 {
		if got := s.TableCols(s.dir[0].alpha, s.dir[0].beta); got.Len() != 0 || s.Err() == nil {
			t.Fatalf("%v: TableCols after Close served %d lanes, Err %v; want none and a sticky error", mode, got.Len(), s.Err())
		}
	}
}

// firstTable returns the directory's first label pair.
func firstTable(s *Snapshot) (alpha, beta int32) {
	s.TableLens(func(a, b int32, count int) bool { alpha, beta = a, b; return false })
	return alpha, beta
}

// TestSnapshotRoundTripAllModes pins a file written from an in-memory
// closure (the writer's row-transpose path) against that closure in
// every mode: the row-major Table transposes agree entry for entry, the
// directory-level stats match, and Close drops every table.
func TestSnapshotRoundTripAllModes(t *testing.T) {
	c, path := writeTestSnapshot(t)
	for _, mode := range []SnapMode{SnapEager, SnapLazy, SnapMMap} {
		s, err := OpenSnapshotFile(path, mode)
		if err != nil {
			t.Fatalf("%v: OpenSnapshotFile: %v", mode, err)
		}
		sameTables(t, c, s, mode.String())
		if err := s.Err(); err != nil {
			t.Fatalf("%v: Err: %v", mode, err)
		}
		if gs, ws := s.ComputeStats(), c.ComputeStats(); gs != ws {
			t.Fatalf("%v: stats %+v, want %+v", mode, gs, ws)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("%v: Close: %v", mode, err)
		}
		assertClosedHoldsNoTables(t, s, mode)
	}
}

// TestSnapshotV2RoundTripAllModes pins the writer's column-streaming
// path: a file re-encoded from a snapshot opened in each mode reopens in
// every mode with TableCols column views that agree with the in-memory
// closure lane for lane.
func TestSnapshotV2RoundTripAllModes(t *testing.T) {
	c, path := writeTestSnapshot(t)
	for _, src := range []SnapMode{SnapEager, SnapLazy, SnapMMap} {
		s, err := OpenSnapshotFile(path, src)
		if err != nil {
			t.Fatalf("%v: OpenSnapshotFile: %v", src, err)
		}
		path2 := filepath.Join(t.TempDir(), "re.snap")
		f, err := os.Create(path2)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteSnapshotV2(f, s); err != nil {
			t.Fatalf("%v: WriteSnapshotV2 of a snapshot: %v", src, err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		s.Close()
		for _, mode := range []SnapMode{SnapEager, SnapLazy, SnapMMap} {
			s2, err := OpenSnapshotFile(path2, mode)
			if err != nil {
				t.Fatalf("%v->%v: OpenSnapshotFile: %v", src, mode, err)
			}
			c.Tables(func(alpha, beta int32, entries []Entry) bool {
				cols := s2.TableCols(alpha, beta)
				if cols.Len() != len(entries) {
					t.Fatalf("%v->%v: cols (%d,%d): %d lanes, want %d", src, mode, alpha, beta, cols.Len(), len(entries))
				}
				for i, e := range entries {
					if cols.At(i) != e {
						t.Fatalf("%v->%v: cols (%d,%d)[%d]: %v, want %v", src, mode, alpha, beta, i, cols.At(i), e)
					}
				}
				return true
			})
			if err := s2.Err(); err != nil {
				t.Fatalf("%v->%v: Err: %v", src, mode, err)
			}
			if gs, ws := s2.ComputeStats(), c.ComputeStats(); gs != ws {
				t.Fatalf("%v->%v: stats %+v, want %+v", src, mode, gs, ws)
			}
			s2.Close()
		}
	}
}

func TestSnapshotOpenDoesNoTableWork(t *testing.T) {
	c, path := writeTestSnapshot(t)
	for _, mode := range []SnapMode{SnapLazy, SnapMMap} {
		s, err := OpenSnapshotFile(path, mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if n := s.TablesLoaded(); n != 0 {
			t.Fatalf("%v: %d tables loaded at open, want 0", mode, n)
		}
		// Directory-only queries stay fault-free.
		s.TableLens(func(alpha, beta int32, count int) bool { return true })
		_ = s.ComputeStats()
		if n := s.TablesLoaded(); n != 0 {
			t.Fatalf("%v: directory reads faulted %d tables", mode, n)
		}
		if s.TableCols(firstTable(s)).Len() == 0 {
			t.Fatalf("%v: first table empty", mode)
		}
		if n := s.TablesLoaded(); n != 1 {
			t.Fatalf("%v: %d tables loaded after one fault, want 1", mode, n)
		}
		s.Close()
	}
	// Eager pre-faults everything.
	s, err := OpenSnapshotFile(path, SnapEager)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if n := s.TablesLoaded(); n != int64(c.NumTables()) {
		t.Fatalf("eager: %d tables loaded at open, want %d", n, c.NumTables())
	}
}

// TestSnapshotMMapZeroCopy: faulting every table of an mmap snapshot
// must not copy payloads onto the heap — the bytes allocated while
// faulting stay far below the payload size the tables span.
func TestSnapshotMMapZeroCopy(t *testing.T) {
	_, path := writeTestSnapshot(t)
	s, err := OpenSnapshotFile(path, SnapMMap)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Mode() != SnapMMap {
		t.Skipf("mmap degraded to %v on this platform", s.Mode())
	}
	if s.BytesMapped() == 0 {
		t.Fatal("BytesMapped = 0 in mmap mode")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.TableLens(func(alpha, beta int32, count int) bool {
		_ = s.TableCols(alpha, beta)
		return true
	})
	runtime.ReadMemStats(&after)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	payload := s.NumEntries() * EntrySize
	if got := int64(after.TotalAlloc - before.TotalAlloc); got > payload/2 {
		t.Fatalf("faulting every table allocated %d bytes, payload is %d: columns were copied", got, payload)
	}
}

// TestSnapshotV2MMapColumnAlignment pins the layout property the
// zero-copy views rely on: in mmap mode every column of every table
// starts 16-byte aligned inside the mapping, so reinterpreting the
// mapped bytes as []int32 is always in-bounds and aligned.
func TestSnapshotV2MMapColumnAlignment(t *testing.T) {
	_, path := writeTestSnapshot(t)
	s, err := OpenSnapshotFile(path, SnapMMap)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Mode() != SnapMMap {
		t.Skipf("mmap degraded to %v on this platform", s.Mode())
	}
	base := uintptr(unsafe.Pointer(&s.data[0]))
	end := base + uintptr(len(s.data))
	checked := 0
	s.TableLens(func(alpha, beta int32, count int) bool {
		cols := s.TableCols(alpha, beta)
		for _, col := range [][]int32{cols.To, cols.Dist, cols.From} {
			if len(col) == 0 {
				continue
			}
			p := uintptr(unsafe.Pointer(&col[0]))
			if p%snapTableAlign != 0 {
				t.Fatalf("table (%d,%d): column start %#x not %d-aligned", alpha, beta, p, snapTableAlign)
			}
			if p < base || p+uintptr(len(col))*4 > end {
				t.Fatalf("table (%d,%d): column [%#x,%#x) escapes the mapping [%#x,%#x) — not zero-copy", alpha, beta, p, p+uintptr(len(col))*4, base, end)
			}
			checked++
		}
		return true
	})
	if checked == 0 {
		t.Fatal("no columns checked")
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotWriteDeterministic pins byte-determinism of the writer
// over an in-memory closure, which the snapshot-of-a-snapshot identity
// tests rely on.
func TestSnapshotWriteDeterministic(t *testing.T) {
	g := gen.ErdosRenyi(40, 150, 5, 3)
	c := Compute(g, Options{})
	var a, b bytes.Buffer
	if err := WriteSnapshotV2(&a, c); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshotV2(&b, c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two WriteSnapshotV2 runs of one closure differ")
	}
}

// TestSnapshotV2WriteDeterministic pins that the writer's two input
// paths write the same bytes: streaming the columns of a snapshot open
// in any mode reproduces the file written from the in-memory closure.
func TestSnapshotV2WriteDeterministic(t *testing.T) {
	_, path := writeTestSnapshot(t)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []SnapMode{SnapEager, SnapLazy, SnapMMap} {
		s, err := OpenSnapshotFile(path, mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		var got bytes.Buffer
		if err := WriteSnapshotV2(&got, s); err != nil {
			t.Fatalf("%v: WriteSnapshotV2: %v", mode, err)
		}
		s.Close()
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%v: snapshot re-encoded from columns differs from the closure's file", mode)
		}
	}
}

// TestSnapshotRejectsV1 pins the retired-format path: a KTPMSNAP1
// header fails at open in every mode with ErrRetiredFormat, whose message
// names the format and both ways out — re-saving with an older build or
// rebuilding from the graph.
func TestSnapshotRejectsV1(t *testing.T) {
	hdr := make([]byte, snapHeaderSize)
	copy(hdr, "KTPMSNAP1\n")
	binary.LittleEndian.PutUint32(hdr[10:14], 1)
	path := filepath.Join(t.TempDir(), "old.snap")
	if err := os.WriteFile(path, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []SnapMode{SnapEager, SnapLazy, SnapMMap} {
		s, err := OpenSnapshotFile(path, mode)
		if err == nil {
			s.Close()
			t.Fatalf("%v: KTPMSNAP1 file opened", mode)
		}
		if !errors.Is(err, ErrRetiredFormat) {
			t.Fatalf("%v: got %v, want ErrRetiredFormat", mode, err)
		}
	}
	if _, err := VerifySnapshotFile(path); !errors.Is(err, ErrRetiredFormat) {
		t.Fatalf("verify: got %v, want ErrRetiredFormat", err)
	}
	msg := ErrRetiredFormat.Error()
	for _, want := range []string{"KTPMSNAP1", "-snapshot-format v2 -save-snapshot", "-graph"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("ErrRetiredFormat %q does not mention %q", msg, want)
		}
	}
}

// corrupt writes a mutated copy of the snapshot and returns its path.
func corrupt(t *testing.T, path string, mutate func(b []byte) []byte) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b = mutate(append([]byte(nil), b...))
	out := filepath.Join(t.TempDir(), "corrupt.snap")
	if err := os.WriteFile(out, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

// snapDirOff reads the directory offset from a snapshot image.
func snapDirOff(b []byte) int64 {
	return int64(binary.LittleEndian.Uint64(b[50:58]))
}

// payloadEnd returns the end of the last table payload in a snapshot
// image: its length without the checksum trailer.
func payloadEnd(t *testing.T, b []byte) int {
	_, _, trailerBytes := snapLayout(t, b)
	return len(b) - int(trailerBytes)
}

// assertRejectsAtOpen requires every mode to refuse the file at open.
func assertRejectsAtOpen(t *testing.T, p, name string) {
	t.Helper()
	for _, mode := range []SnapMode{SnapEager, SnapLazy, SnapMMap} {
		if s, err := OpenSnapshotFile(p, mode); err == nil {
			s.Close()
			t.Fatalf("%v: corruption %q accepted at open", mode, name)
		}
	}
}

// assertRejectsAtFault covers in-bounds payload damage: eager rejects at
// open, lazy/mmap reject at first fault with a sticky Err — through both
// the column and the row read paths — and re-writing the damaged source
// fails loudly instead of writing a truncated snapshot.
func assertRejectsAtFault(t *testing.T, p string) {
	t.Helper()
	if s, err := OpenSnapshotFile(p, SnapEager); err == nil {
		s.Close()
		t.Fatal("eager open accepted payload damage")
	}
	for _, mode := range []SnapMode{SnapLazy, SnapMMap} {
		s, err := OpenSnapshotFile(p, mode)
		if err != nil {
			t.Fatalf("%v: open should defer payload validation, got %v", mode, err)
		}
		alpha, beta := firstTable(s)
		if cols := s.TableCols(alpha, beta); cols.Len() != 0 {
			t.Fatalf("%v: corrupt table served %d lanes", mode, cols.Len())
		}
		if tab := s.Table(alpha, beta); tab != nil {
			t.Fatalf("%v: corrupt table served %d entries via rows", mode, len(tab))
		}
		if s.Err() == nil {
			t.Fatalf("%v: no sticky error after corrupt fault", mode)
		}
		if err := WriteSnapshotV2(io.Discard, s); err == nil {
			t.Fatalf("%v: WriteSnapshotV2 of a corrupt snapshot succeeded", mode)
		}
		s.Close()
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	_, path := writeTestSnapshot(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(b []byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"bad version", func(b []byte) []byte { b[10] = 99; return b }},
		{"numTables overflow", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[18:26], 1<<60)
			return b
		}},
		{"graph section overflow", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[34:42], 1<<62)
			binary.LittleEndian.PutUint64(b[42:50], 1<<62)
			return b
		}},
		{"truncated header", func(b []byte) []byte { return b[:snapHeaderSize/2] }},
		{"truncated payload", func(b []byte) []byte { return b[:payloadEnd(t, b)-EntrySize] }},
		{"truncated at directory", func(b []byte) []byte { return b[:snapDirOff(b)+4] }},
		{"directory offset past EOF", func(b []byte) []byte {
			row := b[snapDirOff(b):]
			binary.LittleEndian.PutUint64(row[8:16], uint64(len(b))+snapPageSize)
			return b
		}},
		{"directory count past EOF", func(b []byte) []byte {
			row := b[snapDirOff(b):]
			binary.LittleEndian.PutUint64(row[16:24], 1<<40)
			return b
		}},
		{"directory count overflow", func(b []byte) []byte {
			row := b[snapDirOff(b):]
			binary.LittleEndian.PutUint64(row[16:24], 1<<62)
			return b
		}},
		{"unsorted directory", func(b []byte) []byte {
			d := snapDirOff(b)
			tmp := make([]byte, snapDirEntSize)
			copy(tmp, b[d:])
			copy(b[d:], b[d+snapDirEntSize:d+2*snapDirEntSize])
			copy(b[d+snapDirEntSize:], tmp)
			return b
		}},
		{"label out of range", func(b []byte) []byte {
			row := b[snapDirOff(b):]
			binary.LittleEndian.PutUint32(row[0:4], 1<<30)
			return b
		}},
		// off+4 breaks the 16-byte column alignment every zero-copy view
		// derives from.
		{"unaligned table offset", func(b []byte) []byte {
			row := b[snapDirOff(b):]
			off := binary.LittleEndian.Uint64(row[8:16])
			binary.LittleEndian.PutUint64(row[8:16], off+4)
			return b
		}},
		{"garbage graph section", func(b []byte) []byte {
			copy(b[snapHeaderSize:], "definitely not a graph")
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			assertRejectsAtOpen(t, corrupt(t, path, tc.mutate), tc.name)
		})
	}
	// Payload corruption inside the directory's bounds is only detectable
	// when the table faults.
	t.Run("out-of-range entry endpoint", func(t *testing.T) {
		row := raw[snapDirOff(raw):]
		off := int64(binary.LittleEndian.Uint64(row[8:16]))
		_, fromRel, _ := colsSpan(int64(binary.LittleEndian.Uint64(row[16:24])))
		assertRejectsAtFault(t, corrupt(t, path, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[off+fromRel:], 1<<30) // from[0] far out of range
			return b
		}))
	})
}

// TestSnapshotV2RejectsCorruption covers the failure surfaces specific
// to the magic and the column layout, and repeats the directory bounds
// on the last directory row, where TestSnapshotRejectsCorruption damages
// the first; these cases also go through VerifySnapshotFile.
func TestSnapshotV2RejectsCorruption(t *testing.T) {
	_, path := writeTestSnapshot(t)
	// lastDirRow returns the last directory row of a snapshot image; the
	// shared cases in TestSnapshotRejectsCorruption damage the first.
	lastDirRow := func(b []byte) []byte {
		n := int64(binary.LittleEndian.Uint64(b[18:26]))
		return b[snapDirOff(b)+(n-1)*snapDirEntSize:]
	}
	// assertRejected requires open in every mode and VerifySnapshotFile
	// to refuse the file, and none of them to mistake it for KTPMSNAP1.
	assertRejected := func(t *testing.T, p, name string) {
		t.Helper()
		assertRejectsAtOpen(t, p, name)
		_, err := VerifySnapshotFile(p)
		if err == nil {
			t.Fatalf("verify: corruption %q accepted", name)
		}
		if errors.Is(err, ErrRetiredFormat) {
			t.Fatalf("verify: corruption %q reported as the retired format: %v", name, err)
		}
	}
	t.Run("bad magic", func(t *testing.T) {
		// An unknown format digit is not the retired format.
		assertRejected(t, corrupt(t, path, func(b []byte) []byte { b[8] = '3'; return b }), "KTPMSNAP3 magic")
	})
	t.Run("directory offset past EOF", func(t *testing.T) {
		assertRejected(t, corrupt(t, path, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(lastDirRow(b)[8:16], uint64(len(b))+snapPageSize)
			return b
		}), "last table offset past EOF")
	})
	t.Run("directory count past EOF", func(t *testing.T) {
		assertRejected(t, corrupt(t, path, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(lastDirRow(b)[16:24], 1<<40)
			return b
		}), "last table count past EOF")
	})
	t.Run("misaligned column start", func(t *testing.T) {
		// off+8 keeps every int32 lane naturally aligned but breaks the
		// 16-byte column alignment the format promises.
		assertRejected(t, corrupt(t, path, func(b []byte) []byte {
			row := lastDirRow(b)
			off := binary.LittleEndian.Uint64(row[8:16])
			binary.LittleEndian.PutUint64(row[8:16], off+8)
			return b
		}), "column start 8 bytes off alignment")
	})
	t.Run("v1 magic on v2 body", func(t *testing.T) {
		p := corrupt(t, path, func(b []byte) []byte { b[8] = '1'; return b })
		for _, mode := range []SnapMode{SnapEager, SnapLazy, SnapMMap} {
			if _, err := OpenSnapshotFile(p, mode); !errors.Is(err, ErrRetiredFormat) {
				t.Fatalf("%v: got %v, want ErrRetiredFormat", mode, err)
			}
		}
	})
	t.Run("version field disagrees with magic", func(t *testing.T) {
		assertRejectsAtOpen(t, corrupt(t, path, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[10:14], 1)
			return b
		}), "version 1 under KTPMSNAP2 magic")
	})
	t.Run("truncated columns", func(t *testing.T) {
		assertRejectsAtOpen(t, corrupt(t, path, func(b []byte) []byte { return b[:payloadEnd(t, b)-8] }), "truncated columns")
	})
	t.Run("out-of-range lane", func(t *testing.T) {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		firstOff := int64(binary.LittleEndian.Uint64(raw[snapDirOff(raw)+8:]))
		// The first column at the first table's offset is to[]; a huge
		// target fails the To bounds pass of validateCols.
		assertRejectsAtFault(t, corrupt(t, path, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[firstOff:], 1<<30)
			return b
		}))
	})
}
