package envelope

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// dirEntries lists the names in dir, to catch stray temp files.
func dirEntries(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names
}

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

func TestWriteFileAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store")
	for _, want := range []string{"first", "second"} {
		if err := WriteFileAtomic(path, writeString(want)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Fatalf("read back %q, %v; want %q", got, err, want)
		}
	}
	if names := dirEntries(t, dir); len(names) != 1 || names[0] != "store" {
		t.Fatalf("directory holds %v, want only the store", names)
	}
}

// TestWriteFileAtomicFailedWriteKeepsOld: a save whose writer fails
// halfway must leave the previous file as it was and no temp file.
func TestWriteFileAtomicFailedWriteKeepsOld(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store")
	if err := WriteFileAtomic(path, writeString("old")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "half of the new")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the writer's error", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "old" {
		t.Fatalf("previous file now %q, want %q", got, "old")
	}
	if names := dirEntries(t, dir); len(names) != 1 {
		t.Fatalf("directory holds %v, want only the store", names)
	}
}

// TestWriteFileAtomicFailedRenameCleansUp: when the rename fails (the
// target is a non-empty directory), the temp file is removed and the
// target untouched.
func TestWriteFileAtomicFailedRenameCleansUp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store")
	if err := os.MkdirAll(filepath.Join(path, "keep"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, writeString("new")); err == nil {
		t.Fatal("rename over a non-empty directory succeeded")
	}
	if names := dirEntries(t, dir); len(names) != 1 || names[0] != "store" {
		t.Fatalf("directory holds %v, want only the store", names)
	}
	if names := dirEntries(t, path); len(names) != 1 || names[0] != "keep" {
		t.Fatalf("target directory now holds %v", names)
	}
}

func TestWriteFileAtomicMissingDir(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent", "store")
	if err := WriteFileAtomic(path, writeString("x")); err == nil {
		t.Fatal("save into a missing directory succeeded")
	}
	if _, err := os.Stat(filepath.Dir(path)); !os.IsNotExist(err) {
		t.Fatalf("save created the directory: %v", err)
	}
}
