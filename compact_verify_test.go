package gnn

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"gnn/internal/snapshot"
	"gnn/internal/snapshot/snapshottest"
)

// TestVerifySnapshotCorruptionTable runs the decoder's whole corruption
// table through the compactor's rotate-verify: every case must still fail
// with its typed error, read from a file (an aligned buffer, verified in
// place) and from a misaligned copy (the copying fallback), so decoding
// in place lost no check of the copying decoder.
func TestVerifySnapshotCorruptionTable(t *testing.T) {
	dir := t.TempDir()
	valid := snapshottest.EncodePlain(t, snapshottest.BuildArena(t, 300, 2, 8, 7), 2)
	for _, c := range []struct {
		data     []byte
		zeroCopy bool
	}{{valid, true}, {misaligned(valid), false}} {
		if err := verifySnapshot(c.data); err != nil {
			t.Fatalf("valid snapshot rejected: %v", err)
		}
		// Both decode paths are exercised: in place, and the fallback.
		if a, err := snapshot.DecodeAdopted(c.data); err != nil || a.ZeroCopy != c.zeroCopy {
			t.Fatalf("adopted decode: zero-copy %v (err %v), want %v", a != nil && a.ZeroCopy, err, c.zeroCopy)
		}
	}
	for i, tc := range snapshottest.Table(t) {
		t.Run(tc.Name, func(t *testing.T) {
			path := filepath.Join(dir, "case.snap")
			if err := os.WriteFile(path, tc.Data, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := verifySnapshotFile(path); !errors.Is(err, tc.Want) {
				t.Fatalf("case %d: file verify: error %v, want %v", i, err, tc.Want)
			}
			if err := verifySnapshot(misaligned(tc.Data)); !errors.Is(err, tc.Want) {
				t.Fatalf("case %d: misaligned verify: error %v, want %v", i, err, tc.Want)
			}
		})
	}
}

// misaligned returns a copy of data whose first byte sits one byte past
// an 8-byte boundary, which in-place adoption must refuse.
func misaligned(data []byte) []byte {
	buf := make([]byte, len(data)+1)
	copy(buf[1:], data)
	return buf[1:]
}
