package fsio

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// tmpFiles lists the *.tmp siblings WriteFileAtomic may leave in dir.
func tmpFiles(t *testing.T, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestWriteFileAtomicWritesAndReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	for _, content := range []string{"first", "second"} {
		if err := WriteFileAtomic(path, func(w io.Writer) error {
			_, err := io.WriteString(w, content)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != content {
			t.Fatalf("file holds %q, want %q", got, content)
		}
	}
	if tmp := tmpFiles(t, dir); len(tmp) != 0 {
		t.Fatalf("temp files left behind: %v", tmp)
	}
}

// TestWriteFileAtomicFailingWriter pins the core contract: a writer that
// fails part-way leaves the existing file at path untouched and no temp
// file behind, and its error reaches the caller.
func TestWriteFileAtomicFailingWriter(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, "partial new content"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the writer's error", err)
	}
	got, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if string(got) != "old" {
		t.Fatalf("path holds %q after a failed write, want %q", got, "old")
	}
	if tmp := tmpFiles(t, dir); len(tmp) != 0 {
		t.Fatalf("temp files left behind: %v", tmp)
	}
}

// TestWriteFileAtomicRenameFails renames onto a non-empty directory,
// which no filesystem allows: the write must fail, the directory must
// survive with its content, and the temp file must be cleaned up.
func TestWriteFileAtomicRenameFails(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(path, "keep"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "content")
		return err
	})
	if err == nil {
		t.Fatal("rename onto a non-empty directory succeeded")
	}
	if fi, serr := os.Stat(path); serr != nil || !fi.IsDir() {
		t.Fatalf("directory at path damaged: %v", serr)
	}
	if _, serr := os.Stat(filepath.Join(path, "keep")); serr != nil {
		t.Fatalf("directory content lost: %v", serr)
	}
	if tmp := tmpFiles(t, dir); len(tmp) != 0 {
		t.Fatalf("temp files left behind: %v", tmp)
	}
}

// TestWriteFileAtomicMissingDir fails at CreateTemp, before the writer
// runs.
func TestWriteFileAtomicMissingDir(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "f")
	called := false
	err := WriteFileAtomic(path, func(w io.Writer) error {
		called = true
		return nil
	})
	if err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
	if called {
		t.Fatal("writer ran although the temp file could not be created")
	}
	if _, serr := os.Stat(path); !errors.Is(serr, os.ErrNotExist) {
		t.Fatalf("stat of path = %v, want not-exist", serr)
	}
}

func TestSyncDir(t *testing.T) {
	dir := t.TempDir()
	if err := SyncDir(dir); err != nil {
		t.Fatalf("SyncDir on an existing directory: %v", err)
	}
	if err := SyncDir(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("SyncDir on a missing directory succeeded")
	}
}

func TestRemoveGlob(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"a.tmp", "b.tmp", "gen-1.snap", "tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := RemoveGlob(dir, "*.tmp")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(removed)
	if want := []string{"a.tmp", "b.tmp"}; !reflect.DeepEqual(removed, want) {
		t.Fatalf("removed %v, want %v", removed, want)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var left []string
	for _, e := range entries {
		left = append(left, e.Name())
	}
	if want := []string{"gen-1.snap", "tmp"}; !reflect.DeepEqual(left, want) {
		t.Fatalf("left %v, want %v", left, want)
	}
	if _, err := RemoveGlob(dir, "["); !errors.Is(err, filepath.ErrBadPattern) {
		t.Fatalf("bad pattern: err = %v, want ErrBadPattern", err)
	}
}
