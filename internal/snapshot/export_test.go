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
