package closure

import (
	"encoding/binary"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// snapLayout pulls the offsets a corruption test needs out of a raw
// snapshot file: where the first table payload lives and how wide the
// checksum trailer (incl. footer) is.
func snapLayout(t *testing.T, raw []byte) (payloadOff, payloadSpan, trailerBytes int64) {
	t.Helper()
	numTables := int64(binary.LittleEndian.Uint64(raw[18:26]))
	dirOff := int64(binary.LittleEndian.Uint64(raw[50:58]))
	if numTables == 0 {
		t.Fatal("fixture snapshot has no tables")
	}
	row := raw[dirOff:]
	payloadOff = int64(binary.LittleEndian.Uint64(row[8:16]))
	_, _, payloadSpan = colsSpan(int64(binary.LittleEndian.Uint64(row[16:24])))
	return payloadOff, payloadSpan, int64(snapTrailerFix+4*numTables) + snapFooterSize
}

func checksumFixture(t *testing.T) TableSource {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(t, rng, 30, 90, 5, 3)
	return Compute(g, Options{})
}

func TestSnapshotChecksumRoundTrip(t *testing.T) {
	src := checksumFixture(t)
	path := t.TempDir() + "/c.snap"
	if err := writeSnapshotFile(path, src); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []SnapMode{SnapEager, SnapLazy, SnapMMap} {
		s, err := OpenSnapshotFile(path, mode)
		if err != nil {
			t.Fatalf("mode=%v: %v", mode, err)
		}
		if !s.Checksummed() {
			t.Fatalf("mode=%v: fresh snapshot not checksummed", mode)
		}
		assertSameSource(t, s, src)
		if err := s.Err(); err != nil {
			t.Fatalf("mode=%v: fault error: %v", mode, err)
		}
		s.Close()
	}
	rep, err := VerifySnapshotFile(path)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if !rep.Checksummed || rep.Tables != src.NumTables() || rep.Entries != src.NumEntries() {
		t.Fatalf("verify report %+v", rep)
	}
}

// TestSnapshotChecksumDetectsPayloadCorruption flips a single payload
// byte: eager opens must fail outright, lazy/mmap opens must surface a
// sticky error when the table faults, and -verify-snapshot's engine
// must reject the file.
func TestSnapshotChecksumDetectsPayloadCorruption(t *testing.T) {
	src := checksumFixture(t)
	path := t.TempDir() + "/c.snap"
	if err := writeSnapshotFile(path, src); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off, span, _ := snapLayout(t, raw)
	raw[off+span/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenSnapshotFile(path, SnapEager); err == nil {
		t.Fatal("eager open accepted payload corruption")
	}
	for _, mode := range []SnapMode{SnapLazy, SnapMMap} {
		s, err := OpenSnapshotFile(path, mode)
		if err != nil {
			t.Fatalf("mode=%v: open (corruption should surface at fault, not open): %v", mode, err)
		}
		s.Tables(func(_, _ int32, _ []Entry) bool { return true }) // fault everything
		if s.Err() == nil {
			t.Fatalf("mode=%v: faulting corrupted payload set no error", mode)
		}
		s.Close()
	}
	if _, err := VerifySnapshotFile(path); err == nil {
		t.Fatal("VerifySnapshotFile accepted payload corruption")
	}
}

// TestSnapshotUnchecksummedOldFormat strips the trailer+footer,
// reproducing a pre-checksum file byte-for-byte: it must open and
// verify cleanly, reporting Checksummed=false.
func TestSnapshotUnchecksummedOldFormat(t *testing.T) {
	src := checksumFixture(t)
	path := t.TempDir() + "/c.snap"
	if err := writeSnapshotFile(path, src); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, _, trailerBytes := snapLayout(t, raw)
	if err := os.WriteFile(path, raw[:int64(len(raw))-trailerBytes], 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenSnapshotFile(path, SnapEager)
	if err != nil {
		t.Fatalf("old-format open: %v", err)
	}
	if s.Checksummed() {
		t.Fatal("trailer-less snapshot claims to be checksummed")
	}
	assertSameSource(t, s, src)
	s.Close()
	rep, err := VerifySnapshotFile(path)
	if err != nil {
		t.Fatalf("verify old-format: %v", err)
	}
	if rep.Checksummed {
		t.Fatalf("verify report claims checksummed: %+v", rep)
	}
}

// TestSnapshotTrailerCorruptionFailsOpen: once payloads end, nothing
// but a complete valid trailer may follow — torn trailers, damaged
// trailer bytes, and clobbered footer magic all fail at open.
func TestSnapshotTrailerCorruptionFailsOpen(t *testing.T) {
	src := checksumFixture(t)
	dir := t.TempDir()
	path := dir + "/c.snap"
	if err := writeSnapshotFile(path, src); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"torn mid-trailer", func(b []byte) []byte { return b[:len(b)-5] }},
		{"torn mid-footer", func(b []byte) []byte { return b[:len(b)-snapFooterSize/2] }},
		{"trailer byte flipped", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-snapFooterSize-2] ^= 0xff // inside a table CRC
			return c
		}},
		{"footer magic clobbered", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-snapFooterSize] ^= 0xff
			return c
		}},
	} {
		p := dir + "/" + strings.ReplaceAll(tc.name, " ", "_")
		if err := os.WriteFile(p, tc.mutate(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenSnapshotFile(p, SnapLazy); err == nil {
			t.Fatalf("open accepted %q", tc.name)
		}
	}
}
