// The mmapfallback tag forces the copy-fallback implementation even on
// unix, so CI can exercise the fallback path on the platforms it has.
//go:build unix && !mmapfallback

package mmapfile

import (
	"fmt"
	"os"
	"syscall"
)

// Open maps the file at path read-only and shared (MAP_SHARED: pages are
// the page cache itself, so concurrent processes mapping the same file
// share physical memory). The file descriptor stays open with the
// mapping, as ReaderAt.
func Open(path string) (mf *File, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size == 0 {
		// mmap rejects zero-length mappings; an empty view needs no pages.
		return &File{data: []byte{}, file: f}, nil
	}
	if size != int64(int(size)) {
		return nil, fmt.Errorf("mmapfile: %s is %d bytes, exceeds address space", path, size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("mmapfile: mmap %s: %w", path, err)
	}
	return &File{data: data, file: f}, nil
}

// Close unmaps the view and closes its descriptor. Any slice still
// aliasing Data faults on touch afterwards; the caller must order Close
// after the last reader. Safe on a nil receiver and when called
// repeatedly.
func (f *File) Close() error {
	if f == nil || f.data == nil {
		return nil
	}
	data, file := f.data, f.file
	f.data, f.file = nil, nil
	var err error
	if len(data) > 0 {
		err = syscall.Munmap(data)
	}
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	return err
}
