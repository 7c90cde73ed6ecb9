package mmapfile

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"
)

func TestOpenReadsFileContents(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	want := bytes.Repeat([]byte{0xab, 0xcd, 0x01}, 5000)
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Data(), want) {
		t.Fatalf("mapped %d bytes, mismatch with file contents", len(f.Data()))
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if f.Data() != nil {
		t.Fatal("Data must be nil after Close")
	}
}

func TestOpenEmptyFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "empty")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Data()) != 0 {
		t.Fatalf("empty file mapped to %d bytes", len(f.Data()))
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenMissingFile(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestCloseNil(t *testing.T) {
	var f *File
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReadAll pins the heap read behind every heap open: a regular file
// comes back whole from wherever its offset stands, on an 8-byte aligned
// base, in one allocation the size of what is left of it; a reader that
// is not a file is read to EOF.
func TestReadAll(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	want := bytes.Repeat([]byte{0x42, 0x17, 0x99}, 40_001)
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, skip := range []int64{0, 3, int64(len(want))} {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Seek(skip, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		data, err := ReadAll(f)
		runtime.ReadMemStats(&m1)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, want[skip:]) {
			t.Fatalf("skip %d: read %d bytes, mismatch with the file's last %d", skip, len(data), len(want)-int(skip))
		}
		if base := uintptr(unsafe.Pointer(unsafe.SliceData(data))); base%8 != 0 {
			t.Fatalf("skip %d: buffer base %#x is not 8-byte aligned", skip, base)
		}
		// The buffer, which the allocator rounds up to whole 8 KiB
		// pages, and the Stat result.
		if alloc, size := m1.TotalAlloc-m0.TotalAlloc, uint64(len(data)); alloc > size+10<<10 {
			t.Fatalf("skip %d: reading %d bytes allocated %d", skip, size, alloc)
		}
	}
	data, err := ReadAll(bytes.NewReader(want))
	if err != nil || !bytes.Equal(data, want) {
		t.Fatalf("reader: %d bytes, err %v", len(data), err)
	}
}
