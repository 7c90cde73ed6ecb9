package snapshot

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Stage names of the crash-safe rotation, in order. Fault-injection tests
// use them to fail AtomicWriteFile at each step and assert that the
// previous snapshot generation survives untouched.
const (
	StageCreate  = "create"  // about to create the temp file
	StageWrite   = "write"   // about to stream the payload
	StageSync    = "sync"    // about to fsync the temp file
	StageVerify  = "verify"  // about to run the caller's verification
	StageRename  = "rename"  // about to rename temp over the target
	StageDirSync = "dirsync" // about to fsync the parent directory
)

// Failpoint, when non-nil, is invoked before every rotation stage with
// the stage name and the temp file path. Returning an error aborts the
// rotation at that stage (the temp file is removed); the hook may also
// mutate the temp file in place — e.g. corrupt it before StageVerify — to
// simulate torn writes. Test-only; nil in production.
var Failpoint func(stage, tmpPath string) error

// TempPath returns the temp-file path AtomicWriteFile uses for a target:
// a stable name, so a crashed rotation leaves exactly one well-known
// orphan that the next successful rotation (or compactor start) removes.
func TempPath(path string) string { return path + ".tmp" }

func failpoint(stage, tmp string) error {
	if Failpoint == nil {
		return nil
	}
	return Failpoint(stage, tmp)
}

// AtomicWriteFile rotates a snapshot file crash-safely: the payload is
// streamed to a temp file in the same directory, fsynced, verified, and
// only then renamed over the target, followed by a parent-directory
// fsync. A crash or failure at any stage leaves the previous target
// content intact — the strict decoder never sees a torn file because the
// target is replaced atomically or not at all. On failure the temp file
// is removed and the first error is returned.
//
// verify, when non-nil, is called with the temp path after the data is
// durable and before the rename; returning an error aborts the rotation
// (this is where the compactor re-decodes its own output).
func AtomicWriteFile(path string, write func(io.Writer) error, verify func(tmpPath string) error) (err error) {
	tmp := TempPath(path)
	if e := failpoint(StageCreate, tmp); e != nil {
		return fmt.Errorf("snapshot: rotate %s: %w", StageCreate, e)
	}
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("snapshot: rotate: %w", err)
	}
	defer func() {
		if f != nil {
			f.Close()
		}
		if err != nil {
			os.Remove(tmp)
		}
	}()

	if err = failpoint(StageWrite, tmp); err != nil {
		return fmt.Errorf("snapshot: rotate %s: %w", StageWrite, err)
	}
	// Unbuffered: the snapshot writer hands the file whole section columns.
	if err = write(f); err != nil {
		return fmt.Errorf("snapshot: rotate write: %w", err)
	}

	if err = failpoint(StageSync, tmp); err != nil {
		return fmt.Errorf("snapshot: rotate %s: %w", StageSync, err)
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("snapshot: rotate fsync: %w", err)
	}
	if err = f.Close(); err != nil {
		f = nil
		return fmt.Errorf("snapshot: rotate close: %w", err)
	}
	f = nil

	if err = failpoint(StageVerify, tmp); err != nil {
		return fmt.Errorf("snapshot: rotate %s: %w", StageVerify, err)
	}
	if verify != nil {
		if err = verify(tmp); err != nil {
			return fmt.Errorf("snapshot: rotate verify: %w", err)
		}
	}

	if err = failpoint(StageRename, tmp); err != nil {
		return fmt.Errorf("snapshot: rotate %s: %w", StageRename, err)
	}
	if err = os.Rename(tmp, path); err != nil {
		return fmt.Errorf("snapshot: rotate rename: %w", err)
	}

	if err = failpoint(StageDirSync, tmp); err != nil {
		return fmt.Errorf("snapshot: rotate %s: %w", StageDirSync, err)
	}
	if d, derr := os.Open(filepath.Dir(path)); derr == nil {
		// Directory fsync makes the rename itself durable; best-effort
		// where the platform refuses it.
		d.Sync()
		d.Close()
	}
	return nil
}
