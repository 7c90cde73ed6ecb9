package snapshot

// HostLittleEndian exposes the host byte order to the external tests.
var HostLittleEndian = hostLittleEndian

// SetWriteColumnsInPlace selects Write's column path for a test and
// returns the function that restores the host's choice.
func SetWriteColumnsInPlace(on bool) (restore func()) {
	old := writeColumnsInPlace
	writeColumnsInPlace = on
	return func() { writeColumnsInPlace = old }
}

// SetAdoptInPlace selects DecodeAdopted's path for a test — in place, or
// the aligned copy a big-endian host takes, whose host-order rewrite is
// an identity on a little-endian one — and returns the function that
// restores the host's choice.
func SetAdoptInPlace(on bool) (restore func()) {
	old := adoptInPlace
	adoptInPlace = on
	return func() { adoptInPlace = old }
}

// Decode is DecodeAdopted followed by Verify: every check, run eagerly,
// with the trees returned as decoded.
func Decode(data []byte) (Manifest, []*Tree, error) {
	a, err := DecodeAdopted(data)
	if err != nil {
		return Manifest{}, nil, err
	}
	if err := a.Verify(); err != nil {
		return Manifest{}, nil, err
	}
	return a.Manifest, a.Trees, nil
}
