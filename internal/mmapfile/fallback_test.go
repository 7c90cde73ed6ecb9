// Forced-fallback coverage: built only under the mmapfallback tag
// (go test -tags mmapfallback ./internal/mmapfile), which swaps the
// unix mmap implementation for the copy fallback so the portable path
// gets CI time on the platforms CI actually has. The shared suite in
// mmapfile_test.go runs against the fallback too; this file pins what
// is specific to it.
//go:build mmapfallback

package mmapfile

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestFallbackNotMapped pins the mode: under the forced tag Open must
// return a heap copy, with no descriptor behind it.
func TestFallbackNotMapped(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	want := bytes.Repeat([]byte{0x5a, 0x11}, 4096)
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.ReaderAt() != nil {
		t.Fatal("forced fallback kept a descriptor, as a mapping does")
	}
	if !bytes.Equal(f.Data(), want) {
		t.Fatal("fallback contents diverge from the file")
	}
}

// TestFallbackSurvivesFileMutation is the behavioral difference from a
// shared mapping: the fallback copies, so truncating or rewriting the
// source file after Open must not disturb the view (a mapped view has
// no such guarantee — SIGBUS on truncation is documented mmap behavior).
func TestFallbackSurvivesFileMutation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	want := bytes.Repeat([]byte{0x7e}, 10000)
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Data(), want) {
		t.Fatal("fallback view changed after source mutation")
	}
}

// TestFallbackCloseIdempotent checks double Close and use-after-check:
// the copy path must match the mapped path's Close contract.
func TestFallbackCloseIdempotent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	if err := os.WriteFile(path, []byte("abc"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
