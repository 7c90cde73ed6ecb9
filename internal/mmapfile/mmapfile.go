// Package mmapfile maps a file into memory read-only. On platforms with
// mmap (anything Go tags as unix) Open returns a view backed directly by
// the page cache, so N processes opening the same file share one
// physical copy and no read I/O happens until a page is touched. On
// other platforms Open transparently falls back to reading the file
// into a heap buffer (ReadFile) — same API, no shared pages.
package mmapfile

import (
	"fmt"
	"io"
	"os"
	"unsafe"
)

// File is a read-only view of a file's contents.
type File struct {
	data []byte
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

// ReadFile reads the file at path whole, as ReadAll does.
func ReadFile(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadAll(f)
}

// ReadAll reads r to EOF. A regular file is read in one allocation of
// exactly its remaining size, into a buffer whose base is 8-byte aligned
// like a mapping's, so a decoder can adopt the fixed-width columns it
// finds at aligned offsets in place. Other readers go through io.ReadAll.
func ReadAll(r io.Reader) ([]byte, error) {
	f, ok := r.(*os.File)
	if !ok {
		return io.ReadAll(r)
	}
	fi, err := f.Stat()
	if err != nil || !fi.Mode().IsRegular() {
		return io.ReadAll(r)
	}
	at, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		return nil, err
	}
	size := max(fi.Size()-at, 0)
	if size != int64(int(size)) {
		return nil, fmt.Errorf("mmapfile: %s is %d bytes, exceeds address space", f.Name(), size)
	}
	data := aligned(int(size))
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, fmt.Errorf("mmapfile: reading %s: %w", f.Name(), err)
	}
	// The size came from Stat: one more read must find the end, or the
	// file grew under the read.
	var probe [1]byte
	switch n, err := f.Read(probe[:]); {
	case n > 0:
		return nil, fmt.Errorf("mmapfile: %s grew while it was read", f.Name())
	case err != io.EOF:
		return nil, fmt.Errorf("mmapfile: reading %s: %w", f.Name(), err)
	}
	return data, nil
}

// AlignedCopy returns a copy of data whose base is 8-byte aligned.
func AlignedCopy(data []byte) []byte {
	buf := aligned(len(data))
	copy(buf, data)
	return buf
}

// aligned returns an n-byte buffer on an 8-byte aligned base: the memory
// of a []uint64, viewed as bytes.
func aligned(n int) []byte {
	words := make([]uint64, (n+7)/8)
	if len(words) == 0 {
		return []byte{}
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), n)
}
