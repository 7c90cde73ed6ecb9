// Package mmapfile maps a file into memory read-only. On platforms with
// mmap (anything Go tags as unix) Open returns a view backed directly by
// the page cache, so N processes opening the same file share one
// physical copy and no read I/O happens until a page is touched. On
// other platforms Open transparently falls back to reading the file
// into a heap buffer — same API, no shared pages; Mapped reports which
// mode is live so callers can surface it.
package mmapfile

import (
	"io"
	"os"
)

// File is a read-only view of a file's contents.
type File struct {
	data   []byte
	mapped bool
	// file is the descriptor a mapping was made from, open until Close;
	// nil in the fallback, whose data is a heap copy.
	file *os.File
}

// ReaderAt returns a reader of the file's bytes that does not go through
// Data: the descriptor the mapping was made from, so reading the whole
// file (to checksum it, say) faults none of the mapping in. It is still
// the file that was opened even if another has since been renamed over
// its path, and it closes with the mapping. nil in the fallback, where
// Data is a heap copy that is cheap to read in place.
func (f *File) ReaderAt() io.ReaderAt {
	if f.file == nil {
		return nil
	}
	return f.file
}

// Data returns the file contents. With a true mapping the slice aliases
// the page cache: it is invalid after Close, and writing to it faults.
func (f *File) Data() []byte { return f.data }

// Mapped reports whether Data is a real memory mapping (true) or a heap
// copy fallback (false).
func (f *File) Mapped() bool { return f.mapped }

// Len returns the file length in bytes.
func (f *File) Len() int { return len(f.data) }
