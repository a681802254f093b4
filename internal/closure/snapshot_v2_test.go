package closure

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
	"unsafe"

	"ktpm/internal/gen"
)

// writeTestSnapshotV2 computes a closure and writes its columnar
// (KTPMSNAP2) snapshot to a temp file.
func writeTestSnapshotV2(t *testing.T) (*Closure, string) {
	t.Helper()
	g := gen.ErdosRenyi(60, 220, 6, 11)
	c := Compute(g, Options{})
	path := filepath.Join(t.TempDir(), "c.snap2")
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

// TestSnapshotV2RoundTripAllModes pins the columnar format against the
// in-memory closure in every mode: row-major Table views (reassembled
// from columns) and TableCols column views must both agree entry for
// entry, and the directory-level stats must match.
func TestSnapshotV2RoundTripAllModes(t *testing.T) {
	c, path := writeTestSnapshotV2(t)
	for _, mode := range []SnapMode{SnapEager, SnapLazy, SnapMMap} {
		s, err := OpenSnapshotFile(path, mode)
		if err != nil {
			t.Fatalf("%v: OpenSnapshotFile: %v", mode, err)
		}
		if s.Version() != 2 || s.Format() != "v2" {
			t.Fatalf("%v: version %d format %q, want 2/v2", mode, s.Version(), s.Format())
		}
		sameTables(t, c, s, mode.String())
		c.Tables(func(alpha, beta int32, entries []Entry) bool {
			cols := s.TableCols(alpha, beta)
			if cols.Len() != len(entries) {
				t.Fatalf("%v: cols (%d,%d): %d lanes, want %d", mode, alpha, beta, cols.Len(), len(entries))
			}
			for i, e := range entries {
				if cols.At(i) != e {
					t.Fatalf("%v: cols (%d,%d)[%d]: %v, want %v", mode, alpha, beta, i, cols.At(i), e)
				}
			}
			return true
		})
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

// TestSnapshotV2MMapColumnAlignment pins the layout property the
// zero-copy views rely on: in mmap mode every column of every table
// starts 16-byte aligned inside the mapping, so reinterpreting the
// mapped bytes as []int32 is always in-bounds and aligned.
func TestSnapshotV2MMapColumnAlignment(t *testing.T) {
	_, path := writeTestSnapshotV2(t)
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

// TestSnapshotV2WriteDeterministic pins byte-determinism of the v2
// writer, which the snapshot-of-a-snapshot identity test relies on.
func TestSnapshotV2WriteDeterministic(t *testing.T) {
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

// TestSnapshotV2RejectsCorruption covers the v2-specific failure
// surfaces: column payloads that overrun the file, misaligned column
// starts (the offset rule every zero-copy view derives from), magic and
// version disagreement, and payload damage detectable only at fault
// time.
func TestSnapshotV2RejectsCorruption(t *testing.T) {
	_, path := writeTestSnapshotV2(t)
	cases := []struct {
		name   string
		mutate func(b []byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"v1 magic on v2 body", func(b []byte) []byte { b[8] = '1'; return b }},
		{"version field disagrees with magic", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[10:14], 1)
			return b
		}},
		{"truncated columns", func(b []byte) []byte { return b[:len(b)-8] }},
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
		{"misaligned column start", func(b []byte) []byte {
			row := b[snapDirOff(b):]
			off := binary.LittleEndian.Uint64(row[8:16])
			binary.LittleEndian.PutUint64(row[8:16], off+4)
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := corrupt(t, path, tc.mutate)
			for _, mode := range []SnapMode{SnapEager, SnapLazy, SnapMMap} {
				if s, err := OpenSnapshotFile(p, mode); err == nil {
					s.Close()
					t.Fatalf("%v: corruption %q accepted at open", mode, tc.name)
				}
			}
		})
	}
	// In-bounds payload damage: eager rejects at open, lazy/mmap reject
	// at first fault with a sticky Err — through both the row and the
	// column read paths.
	t.Run("out-of-range lane", func(t *testing.T) {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		firstOff := int64(binary.LittleEndian.Uint64(raw[snapDirOff(raw)+8:]))
		p := corrupt(t, path, func(b []byte) []byte {
			// First column at the first table's offset is to[]; a huge
			// target fails the To bounds pass of validateCols.
			binary.LittleEndian.PutUint32(b[firstOff:], 1<<30)
			return b
		})
		if s, err := OpenSnapshotFile(p, SnapEager); err == nil {
			s.Close()
			t.Fatal("eager open accepted an out-of-range column lane")
		}
		for _, mode := range []SnapMode{SnapLazy, SnapMMap} {
			s, err := OpenSnapshotFile(p, mode)
			if err != nil {
				t.Fatalf("%v: open should defer payload validation, got %v", mode, err)
			}
			var alpha, beta int32
			s.TableLens(func(a, b int32, count int) bool { alpha, beta = a, b; return false })
			if cols := s.TableCols(alpha, beta); cols.Len() != 0 {
				t.Fatalf("%v: corrupt table served %d lanes", mode, cols.Len())
			}
			if tab := s.Table(alpha, beta); tab != nil {
				t.Fatalf("%v: corrupt table served %d entries via rows", mode, len(tab))
			}
			if s.Err() == nil {
				t.Fatalf("%v: no sticky error after corrupt fault", mode)
			}
			s.Close()
		}
	})
}
