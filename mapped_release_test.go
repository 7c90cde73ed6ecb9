//go:build unix && !mmapfallback

package gnn_test

import (
	"bufio"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"gnn"
)

// TestCompactionReleasesMapping pins the one-resident-copy contract of a
// mapped index that compacts, plain and sharded. The compaction rotates
// its snapshot over the served file, as the daemon does, and:
//   - once no reader holds the old view, the original file is no longer
//     mapped (read from /proc/self/maps), and queries go on;
//   - an iterator opened before the compaction keeps the file mapped
//     until it closes, and answers like the heap index the snapshot was
//     written from;
//   - Close after the release succeeds, twice, and later queries fail
//     with ErrSnapshotClosed.
func TestCompactionReleasesMapping(t *testing.T) {
	if _, err := os.ReadFile("/proc/self/maps"); err != nil {
		t.Skipf("no /proc/self/maps: %v", err)
	}
	const n = 20_000
	rng := rand.New(rand.NewSource(47))
	pts := randGroup(rng, n)
	group := []gnn.Point{{400, 400}, {430, 460}, {470, 410}}
	plain, err := gnn.BuildIndex(pts, nil, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := gnn.BuildShardedIndex(pts, nil, 4, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()

	for _, kind := range []struct {
		name  string
		heap  *gnn.Index
		write func(string) error
		open  func(string) (*gnn.Index, error)
	}{
		{"plain", plain, plain.WriteSnapshotFile,
			func(p string) (*gnn.Index, error) { return gnn.OpenSnapshotMapped(p) }},
		{"sharded", sharded, sharded.WriteSnapshotFile,
			func(p string) (*gnn.Index, error) { return gnn.OpenShardedSnapshotMapped(p) }},
	} {
		t.Run(kind.name, func(t *testing.T) {
			dir := t.TempDir()
			open := func(name string) (*gnn.Index, string) {
				t.Helper()
				path := writeSnapFile(t, dir, name, kind.write)
				mx, err := kind.open(path)
				if err != nil {
					t.Fatal(err)
				}
				// The background loop never fires: only the Compact calls
				// below run, each rotating over the served file.
				err = mx.StartCompactor(gnn.CompactorConfig{Threshold: math.MaxInt, Interval: time.Hour, Path: path})
				if err != nil {
					t.Fatal(err)
				}
				if !mapsFile(t, path) {
					t.Fatalf("%s not in /proc/self/maps after the mapped open", path)
				}
				return mx, path
			}
			compact := func(mx *gnn.Index) {
				t.Helper()
				if err := mx.Insert(gnn.Point{500, 500}, n); err != nil {
					t.Fatal(err)
				}
				if err := mx.Compact(); err != nil {
					t.Fatal(err)
				}
			}

			// Released once no reader holds the old view.
			mx, path := open("release.snap")
			if _, err := mx.GroupNN(group); err != nil {
				t.Fatal(err)
			}
			compact(mx)
			if mapsFile(t, path) {
				t.Fatalf("%s still mapped after the compaction, with no reader left", path)
			}
			if res, err := mx.GroupNN(group, gnn.WithK(3)); err != nil || len(res) != 3 {
				t.Fatalf("query after the release: %d results, err %v", len(res), err)
			}
			compact(mx) // a second compaction finds the mapping released
			for i := 0; i < 2; i++ {
				if err := mx.Close(); err != nil {
					t.Fatalf("Close %d after the release: %v", i+1, err)
				}
			}
			if _, err := mx.GroupNN(group); !errors.Is(err, gnn.ErrSnapshotClosed) {
				t.Fatalf("query after Close: %v, want ErrSnapshotClosed", err)
			}

			// Held by an iterator opened before the compaction.
			const take = 200
			mx, path = open("iterator.snap")
			defer mx.Close()
			it, err := mx.GroupNNIterator(group)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := kind.heap.GroupNNIterator(group)
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			next := func(i int) {
				t.Helper()
				got, ok1 := it.Next()
				want, ok2 := ref.Next()
				if !ok1 || !ok2 || got.ID != want.ID || got.Dist != want.Dist ||
					got.Point[0] != want.Point[0] || got.Point[1] != want.Point[1] {
					t.Fatalf("result %d: mapped %+v (%v), heap %+v (%v)", i, got, ok1, want, ok2)
				}
			}
			for i := 0; i < take/2; i++ {
				next(i)
			}
			compact(mx)
			if !mapsFile(t, path) {
				t.Fatalf("%s unmapped under an open iterator", path)
			}
			for i := take / 2; i < take; i++ {
				next(i)
			}
			it.Close()
			if mapsFile(t, path) {
				t.Fatalf("%s still mapped after the iterator closed", path)
			}
		})
	}
}

// mapsFile reports whether /proc/self/maps lists a mapping of path,
// under its name or, once renamed over, as deleted.
func mapsFile(t *testing.T, path string) bool {
	t.Helper()
	path, err := filepath.Abs(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSuffix(sc.Text(), " (deleted)")
		if strings.HasSuffix(line, " "+path) {
			return true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return false
}

// TestVerifiedOpenResidency pins what verification leaves resident. An
// eagerly verified mapped open checksums the file through the
// descriptor its mapping was made from, so the only mapped pages it
// touches hold the header, the section table and the meta and node
// sections (resident bytes read from /proc/self/smaps):
//   - a plain open leaves at most a tenth of the file resident;
//   - plain or sharded, the eager verify adds at most a tenth of the
//     file to what a lazy open of it leaves resident. (The kernel maps
//     a window of pages around each one a read faults in, so the frame
//     reads of a 4-shard open, one meta section per shard, already
//     leave more than a tenth of this file resident.)
//
// The descriptor stays open with the mapping and is gone from
// /proc/self/fd after Close, and after a compaction releases the
// mapping.
func TestVerifiedOpenResidency(t *testing.T) {
	if _, err := os.ReadFile("/proc/self/smaps"); err != nil {
		t.Skipf("no /proc/self/smaps: %v", err)
	}
	const n = 100_000
	pts := randGroup(rand.New(rand.NewSource(53)), n)
	plain, err := gnn.BuildIndex(pts, nil, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := gnn.BuildShardedIndex(pts, nil, 4, gnn.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	for _, kind := range []struct {
		name  string
		write func(string) error
		open  func(string, ...gnn.SnapshotOption) (*gnn.Index, error)
	}{
		{"plain", plain.WriteSnapshotFile,
			func(p string, o ...gnn.SnapshotOption) (*gnn.Index, error) { return gnn.OpenSnapshotMapped(p, o...) }},
		{"sharded", sharded.WriteSnapshotFile,
			func(p string, o ...gnn.SnapshotOption) (*gnn.Index, error) {
				return gnn.OpenShardedSnapshotMapped(p, o...)
			}},
	} {
		t.Run(kind.name, func(t *testing.T) {
			path := writeSnapFile(t, t.TempDir(), "ix.snap", kind.write)
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			mx, err := kind.open(path)
			if err != nil {
				t.Fatal(err)
			}
			lazy := mappedRSS(t, path)
			if err := mx.Close(); err != nil {
				t.Fatal(err)
			}
			mx, err = kind.open(path, gnn.WithEagerVerify())
			if err != nil {
				t.Fatal(err)
			}
			eager, tenth := mappedRSS(t, path), st.Size()/10
			t.Logf("file %d kB: %d kB resident after a lazy open, %d kB after an eager one",
				st.Size()>>10, lazy>>10, eager>>10)
			if kind.name == "plain" && eager > tenth {
				t.Errorf("eager open left %d of the file's %d bytes resident, over a tenth", eager, st.Size())
			}
			if eager-lazy > tenth {
				t.Errorf("eager verify made %d more bytes of the %d-byte file resident, over a tenth", eager-lazy, st.Size())
			}
			if !holdsFD(t, path) {
				t.Fatal("the mapping's descriptor is not open")
			}
			if err := mx.Close(); err != nil {
				t.Fatal(err)
			}
			if holdsFD(t, path) {
				t.Fatal("descriptor still open after Close")
			}

			mx, err = kind.open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer mx.Close()
			err = mx.StartCompactor(gnn.CompactorConfig{Threshold: math.MaxInt, Interval: time.Hour, Path: path})
			if err != nil {
				t.Fatal(err)
			}
			if err := mx.Insert(gnn.Point{500, 500}, n); err != nil {
				t.Fatal(err)
			}
			if err := mx.Compact(); err != nil {
				t.Fatal(err)
			}
			if holdsFD(t, path) {
				t.Fatal("descriptor still open after the compaction released the mapping")
			}
		})
	}
}

// mappedRSS returns the bytes of path's mappings resident in this
// process, summed from the Rss lines of /proc/self/smaps.
func mappedRSS(t *testing.T, path string) int64 {
	t.Helper()
	path, err := filepath.Abs(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var kb int64
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if key, val, ok := strings.Cut(line, ":"); ok && !strings.Contains(key, " ") {
			if in && key == "Rss" {
				v, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(val), " kB"), 10, 64)
				if err != nil {
					t.Fatalf("parsing %q: %v", line, err)
				}
				kb += v
			}
			continue
		}
		// A mapping's header line: address range, perms, offset, device,
		// inode, then the path.
		in = strings.HasSuffix(strings.TrimSuffix(line, " (deleted)"), " "+path)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return kb << 10
}

// holdsFD reports whether one of this process's descriptors is open on
// path, under its name or, once renamed over, as deleted.
func holdsFD(t *testing.T, path string) bool {
	t.Helper()
	path, err := filepath.Abs(path)
	if err != nil {
		t.Fatal(err)
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err == nil && strings.TrimSuffix(target, " (deleted)") == path {
			return true
		}
	}
	return false
}
