package closure

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ktpm/internal/gen"
)

// FuzzOpenSnapshotV2 pins the KTPMSNAP2 decoder against hostile files:
// no byte sequence may panic OpenSnapshotFile or the fault path behind
// it. Accepted files must serve their directory and every table without
// crashing — corruption the open-time validation cannot see (payload
// bytes in lazy mode) surfaces through the sticky Err, never a panic —
// and anything carrying the retired KTPMSNAP1 magic must fail with
// ErrRetiredFormat. Seeds are a valid snapshot plus targeted damage to the
// column machinery — bad magic, truncated columns, directory offsets and
// counts past EOF, misaligned column starts — and a bare KTPMSNAP1
// header.
func FuzzOpenSnapshotV2(f *testing.F) {
	g := gen.ErdosRenyi(12, 30, 3, 7)
	c := Compute(g, Options{})
	var valid bytes.Buffer
	if err := WriteSnapshotV2(&valid, c); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	// Truncations at structural boundaries, including mid-column cuts.
	for _, n := range []int{0, 5, snapHeaderSize - 1, snapHeaderSize, valid.Len() / 2, valid.Len() - 3, valid.Len() - 8} {
		if n >= 0 && n <= valid.Len() {
			f.Add(valid.Bytes()[:n])
		}
	}
	// Field-level mutations: magic, version, counts, offsets.
	for _, off := range []int{0, 8, 10, 18, 26, 34, 42, 50} {
		b := append([]byte(nil), valid.Bytes()...)
		binary.LittleEndian.PutUint32(b[off:], 0xfeedface)
		f.Add(b)
	}
	// Directory mutations: offset past EOF, count past EOF, misaligned
	// column start (off+4 breaks the 16-byte alignment rule).
	dirOff := int(binary.LittleEndian.Uint64(valid.Bytes()[50:58]))
	if dirOff+24 <= valid.Len() {
		for _, m := range []struct {
			field int
			val   uint64
		}{
			{8, uint64(valid.Len()) + snapPageSize},
			{16, 1 << 40},
			{8, binary.LittleEndian.Uint64(valid.Bytes()[dirOff+8:]) + 4},
		} {
			b := append([]byte(nil), valid.Bytes()...)
			binary.LittleEndian.PutUint64(b[dirOff+m.field:], m.val)
			f.Add(b)
		}
	}
	v1 := make([]byte, snapHeaderSize)
	copy(v1, snapMagicV1)
	binary.LittleEndian.PutUint32(v1[10:14], 1)
	f.Add(v1)

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzOpenSnapshot(t, data)
	})
}

// fuzzOpenSnapshot is the fuzz body: open in lazy and eager modes,
// fault every table through rows and columns, and require every outcome
// to be a rejection or a sticky Err — never a panic.
func fuzzOpenSnapshot(t *testing.T, data []byte) {
	path := filepath.Join(t.TempDir(), "fuzz.snap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Skip()
	}
	for _, mode := range []SnapMode{SnapLazy, SnapEager} {
		s, err := OpenSnapshotFile(path, mode)
		if bytes.HasPrefix(data, snapMagicV1) && !errors.Is(err, ErrRetiredFormat) {
			t.Fatalf("KTPMSNAP1 input: got %v, want ErrRetiredFormat", err)
		}
		if err != nil {
			continue // rejected files just need to not panic
		}
		// Fault every table through both access paths and walk the
		// stats; lazy-mode payload corruption must land in Err, not a
		// crash.
		s.Tables(func(alpha, beta int32, entries []Entry) bool {
			_ = entries
			return true
		})
		s.TableLens(func(alpha, beta int32, count int) bool {
			_ = s.TableCols(alpha, beta)
			return true
		})
		_ = s.Err()
		_ = s.ComputeStats()
		_ = s.Mode()
		if err := s.Close(); err != nil {
			t.Fatalf("Close after full fault: %v", err)
		}
	}
}
