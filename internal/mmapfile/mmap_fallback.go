//go:build !unix || mmapfallback

package mmapfile

// Open reads the file at path into a heap buffer: the portable fallback
// for platforms without mmap. Same API as the mapped form, but pages are
// private to this process and the whole file is read up front, into an
// 8-byte aligned buffer (ReadFile) that a decoder adopts in place.
func Open(path string) (*File, error) {
	data, err := ReadFile(path)
	if err != nil {
		return nil, err
	}
	return &File{data: data}, nil
}

// Close releases the buffer for garbage collection. Safe on a nil
// receiver and when called repeatedly.
func (f *File) Close() error {
	if f == nil {
		return nil
	}
	f.data = nil
	return nil
}
