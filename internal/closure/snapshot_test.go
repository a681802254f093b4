package closure

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"testing"

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
	if err := WriteSnapshot(f, c); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
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
		if s.tabs[i].Load() != nil || s.cols[i].Load() != nil {
			t.Fatalf("%v: table %d still published after Close", mode, i)
		}
	}
	if len(s.dir) > 0 {
		if got := s.Table(s.dir[0].alpha, s.dir[0].beta); got != nil || s.Err() == nil {
			t.Fatalf("%v: Table after Close served %d entries, Err %v; want none and a sticky error", mode, len(got), s.Err())
		}
	}
}

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
		ws := c.ComputeStats()
		gs := s.ComputeStats()
		if gs != ws {
			t.Fatalf("%v: stats %+v, want %+v", mode, gs, ws)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("%v: Close: %v", mode, err)
		}
		assertClosedHoldsNoTables(t, s, mode)
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
		var alpha, beta int32 = -1, -1
		s.TableLens(func(a, b int32, count int) bool { alpha, beta = a, b; return false })
		if len(s.Table(alpha, beta)) == 0 {
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
	// Faulting every table must not copy payloads onto the heap: total
	// allocation stays far below the mapped payload size.
	s.Tables(func(alpha, beta int32, entries []Entry) bool { return true })
	if err := s.Err(); err != nil {
		t.Fatal(err)
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
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-EntrySize] }},
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
			p := corrupt(t, path, tc.mutate)
			for _, mode := range []SnapMode{SnapEager, SnapLazy, SnapMMap} {
				if s, err := OpenSnapshotFile(p, mode); err == nil {
					s.Close()
					t.Fatalf("%v: corruption %q accepted at open", mode, tc.name)
				}
			}
		})
	}
	// Payload corruption inside the directory's bounds is only detectable
	// when the table faults: eager rejects at open; lazy and mmap reject
	// at first Table with a sticky Err.
	t.Run("out-of-range entry endpoint", func(t *testing.T) {
		var first snapDirEnt
		first.off = int64(binary.LittleEndian.Uint64(raw[snapDirOff(raw)+8:]))
		p := corrupt(t, path, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[first.off:], 1<<30) // Entry.From far out of range
			return b
		})
		if s, err := OpenSnapshotFile(p, SnapEager); err == nil {
			s.Close()
			t.Fatal("eager open accepted an out-of-range entry endpoint")
		}
		for _, mode := range []SnapMode{SnapLazy, SnapMMap} {
			s, err := OpenSnapshotFile(p, mode)
			if err != nil {
				t.Fatalf("%v: open should defer payload validation, got %v", mode, err)
			}
			var alpha, beta int32
			s.TableLens(func(a, b int32, count int) bool { alpha, beta = a, b; return false })
			if tab := s.Table(alpha, beta); tab != nil {
				t.Fatalf("%v: corrupt table served %d entries", mode, len(tab))
			}
			if s.Err() == nil {
				t.Fatalf("%v: no sticky error after corrupt fault", mode)
			}
			// Re-writing the damaged source must fail loudly, not write
			// a truncated snapshot.
			if err := WriteSnapshot(io.Discard, s); err == nil {
				t.Fatalf("%v: WriteSnapshot of a corrupt snapshot succeeded", mode)
			}
			s.Close()
		}
	})
}

func TestSnapshotWriteDeterministic(t *testing.T) {
	g := gen.ErdosRenyi(40, 150, 5, 3)
	c := Compute(g, Options{})
	var a, b bytes.Buffer
	if err := WriteSnapshot(&a, c); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(&b, c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two WriteSnapshot runs of one closure differ")
	}
}
