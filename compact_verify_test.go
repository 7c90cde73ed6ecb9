package gnn

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"unsafe"

	"gnn/internal/snapshot"
	"gnn/internal/snapshot/snapshottest"
)

// TestVerifySnapshotCorruptionTable runs the decoder's whole corruption
// table through every verifier of snapshot bytes, and every case must
// still fail with its typed error on each:
//   - snapshot.VerifyFile, the compactor's rotate-verify, which reads a
//     file's checksummed bytes in bounded chunks and adopts its node
//     sections in place;
//   - the adopted decoder on an 8-byte aligned copy, verified in place
//     (the lazy verify behind every mapped open);
//   - the adopted decoder on a misaligned copy (the copying fallback).
//
// So neither the chunked nor the in-place path lost a check of the
// copying decoder.
func TestVerifySnapshotCorruptionTable(t *testing.T) {
	dir := t.TempDir()
	valid := snapshottest.EncodePlain(t, snapshottest.BuildArena(t, 300, 2, 8, 7), 2)
	path := filepath.Join(dir, "valid.snap")
	if err := os.WriteFile(path, valid, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := snapshot.VerifyFile(path); err != nil {
		t.Fatalf("valid snapshot file rejected: %v", err)
	}
	for _, c := range []struct {
		data     []byte
		zeroCopy bool
	}{{aligned(valid), true}, {misaligned(valid), false}} {
		// Both decode paths are exercised: in place, and the fallback.
		a, err := snapshot.DecodeAdopted(c.data)
		if err != nil || a.ZeroCopy != c.zeroCopy {
			t.Fatalf("adopted decode: zero-copy %v (err %v), want %v", a != nil && a.ZeroCopy, err, c.zeroCopy)
		}
		if err := a.Verify(); err != nil {
			t.Fatalf("valid snapshot rejected: %v", err)
		}
	}
	for i, tc := range snapshottest.Table(t) {
		t.Run(tc.Name, func(t *testing.T) {
			path := filepath.Join(dir, "case.snap")
			if err := os.WriteFile(path, tc.Data, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := snapshot.VerifyFile(path); !errors.Is(err, tc.Want) {
				t.Fatalf("case %d: file verify: error %v, want %v", i, err, tc.Want)
			}
			a, err := snapshot.DecodeAdopted(aligned(tc.Data))
			if err == nil {
				if !a.ZeroCopy {
					t.Fatalf("case %d: aligned copy decoded by the copying fallback", i)
				}
				err = a.Verify()
			}
			if !errors.Is(err, tc.Want) {
				t.Fatalf("case %d: in-place verify: error %v, want %v", i, err, tc.Want)
			}
			if err := verifyAdopted(misaligned(tc.Data)); !errors.Is(err, tc.Want) {
				t.Fatalf("case %d: misaligned verify: error %v, want %v", i, err, tc.Want)
			}
		})
	}
}

// verifyAdopted runs every check of the adopted decoder on data.
func verifyAdopted(data []byte) error {
	a, err := snapshot.DecodeAdopted(data)
	if err != nil {
		return err
	}
	return a.Verify()
}

// aligned returns a copy of data whose first byte sits on an 8-byte
// boundary, which a little-endian host adopts in place.
func aligned(data []byte) []byte {
	buf := make([]byte, len(data)+8)
	off := (8 - uintptr(unsafe.Pointer(unsafe.SliceData(buf)))%8) % 8
	return buf[off : off+uintptr(copy(buf[off:], data))]
}

// misaligned returns a copy of data whose first byte sits one byte past
// an 8-byte boundary, which in-place adoption must refuse.
func misaligned(data []byte) []byte {
	buf := make([]byte, len(data)+1)
	copy(buf[1:], data)
	return buf[1:]
}
