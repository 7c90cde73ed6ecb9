// Background compaction: folding the write overlay back into a fresh
// packed base of the same kind (one arena, or as many shards) off the hot
// path, swapping it in atomically under live readers, and (optionally)
// rotating the on-disk snapshot crash-safely.

package gnn

import (
	"errors"
	"fmt"
	"os"
	"time"

	"gnn/internal/shard"
	"gnn/internal/snapshot"
)

// ErrCompactorRunning reports a second StartCompactor without an
// intervening StopCompactor.
var ErrCompactorRunning = errors.New("gnn: compactor already running")

// CompactorConfig tunes the background compactor. On a mapped index (one
// opened with OpenSnapshotMapped or OpenShardedSnapshotMapped) the first
// compaction also releases the mapping: the file is unmapped once the
// reads that started before the swap are done, so Close is no longer the
// only point where it goes.
type CompactorConfig struct {
	// Threshold is the overlay size (live overlay inserts + masked base
	// occurrences) at which a compaction cycle is triggered. Default
	// 1024. The trigger is backpressure-free: while a cycle runs, writes
	// keep landing in the overlay of the serving view and queries stay
	// correct — only bounded-slower, by the extra delta/pending sources —
	// and the next cycle folds whatever accumulated.
	Threshold int
	// Interval is the poll period backing the trigger (writes also kick
	// the compactor directly when they cross Threshold). Default 50ms.
	Interval time.Duration
	// Path, when non-empty, makes every successful compaction rotate a
	// snapshot of the new base into this file crash-safely (write temp →
	// fsync → verify → rename → fsync dir). A failed rotation never
	// replaces the previous file, is rolled back (temp removed), recorded
	// in Stats().LastCompactionError — and does not block the in-memory
	// swap: serving degrades to memory-only until a later cycle rotates
	// successfully.
	Path string
}

func (c CompactorConfig) withDefaults() CompactorConfig {
	if c.Threshold <= 0 {
		c.Threshold = 1024
	}
	if c.Interval <= 0 {
		c.Interval = 50 * time.Millisecond
	}
	return c
}

// compactor is an index's background compaction loop.
type compactor struct {
	threshold int
	interval  time.Duration
	stop      chan struct{}
	kick      chan struct{}
	done      chan struct{}
	run       func() error // one compaction cycle
	size      func() int   // current overlay size
}

func newCompactor(cfg CompactorConfig, run func() error, size func() int) *compactor {
	return &compactor{
		threshold: cfg.Threshold,
		interval:  cfg.Interval,
		stop:      make(chan struct{}),
		kick:      make(chan struct{}, 1),
		done:      make(chan struct{}),
		run:       run,
		size:      size,
	}
}

func (c *compactor) loop() {
	defer close(c.done)
	t := time.NewTicker(c.interval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-c.kick:
		case <-t.C:
		}
		if c.size() >= c.threshold {
			c.run() // errors are recorded in stats; the old view keeps serving
		}
	}
}

// halt stops the loop and waits for an in-flight cycle to finish (the
// cycle either completes its swap or aborts cleanly; a crash-safe
// rotation never leaves a temp file behind on failure).
func (c *compactor) halt() {
	close(c.stop)
	<-c.done
}

// StartCompactor starts the background compactor. On a NewIndex before
// its first read it first packs the buffered points, as that read would.
// A stale temp file from a crashed previous rotation at cfg.Path is
// removed.
func (ix *Index) StartCompactor(cfg CompactorConfig) error {
	cfg = cfg.withDefaults()
	if _, err := ix.freeze(); err != nil {
		return err
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.closed.Load() {
		return ErrSnapshotClosed
	}
	if ix.comp != nil {
		return ErrCompactorRunning
	}
	ix.persist = cfg.Path
	if cfg.Path != "" {
		os.Remove(snapshot.TempPath(cfg.Path))
	}
	c := newCompactor(cfg, func() error { return ix.compactOnce() },
		func() int { return overlaySize(ix.view.Load()) })
	ix.comp = c
	go c.loop()
	return nil
}

// StopCompactor stops the background compactor, waiting for an in-flight
// compaction to finish or abort cleanly. Safe to call when none runs.
// Close calls it automatically.
func (ix *Index) StopCompactor() {
	ix.mu.Lock()
	c := ix.comp
	ix.comp = nil
	ix.mu.Unlock()
	if c != nil {
		c.halt()
	}
}

// kickCompactor nudges the background loop when a write pushes the
// overlay past the threshold. Called under mu.
func (ix *Index) kickCompactor(s *shard.Set) {
	if ix.comp != nil && overlaySize(s) >= ix.comp.threshold {
		select {
		case ix.comp.kick <- struct{}{}:
		default:
		}
	}
}

// Compact synchronously folds the overlay into a fresh packed base — a
// partitioned base is re-partitioned into the same number of shards —
// and swaps it in under live readers: the old base is never freed under a
// traversal (in-flight queries hold their view). A mapped base's file is
// unmapped once every read that started before the swap has released its
// lifecycle reference, so the compacted index keeps one resident copy of
// its points instead of holding the file mapped until Close. When a
// rotation path is configured (StartCompactor), the new base is also
// rotated to disk crash-safely; a rotation failure is returned and
// recorded but the in-memory swap still happens. Compacting an index
// without overlay writes is a cheap no-op. On a NewIndex before its first
// read Compact packs the buffered points into the base, as that read
// would; from then on writes go through the overlay.
func (ix *Index) Compact() error {
	return ix.compactOnce()
}

func (ix *Index) compactOnce() (err error) {
	ix.compactMu.Lock()
	defer ix.compactMu.Unlock()

	// Hold a lifecycle reference for the whole cycle so Close's drain
	// waits for it: the fold walks the base tree, which on a mapped
	// index reads the mapping Close would unmap.
	r, err := ix.acquire()
	if err != nil {
		return err
	}
	defer ix.release(r)
	if _, err := ix.freeze(); err != nil {
		return err
	}

	// Capture the view to fold, and log every write published after it
	// for the replay.
	ix.mu.Lock()
	s := ix.view.Load()
	path := ix.persist
	fold := overlaySize(s) > 0
	ix.logging = fold
	ix.mu.Unlock()
	if !fold {
		return nil // nothing to fold
	}

	start := time.Now()
	defer func() {
		ix.compactNS.Store(int64(time.Since(start)))
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		ix.compactErr.Store(&msg)
	}()

	// Build the replacement base off the write lock: writers and readers
	// proceed against the captured view while this runs. A lazily
	// verified mapped base must pass its checks before it is folded: a
	// corrupt one enumerates no points, and the cycle would swap (and
	// rotate over the served file) the overlay alone.
	var nset *shard.Set
	foldErr := s.Prepare()
	if foldErr == nil {
		nset, foldErr = s.Fold()
	}
	var persistErr error
	if foldErr == nil && path != "" {
		persistErr = persist(path, nset)
	}

	ix.mu.Lock()
	defer ix.mu.Unlock()
	log := ix.log
	ix.log, ix.logging = nil, false
	if foldErr != nil {
		return fmt.Errorf("gnn: compact: %w", foldErr)
	}
	if ix.closed.Load() {
		return ErrSnapshotClosed
	}
	// Replay the writes that landed while the fold ran onto the fresh
	// base: the new base is exactly the live multiset at capture time, so
	// applying the log in order reproduces the current state (tombstone
	// multiplicities are recomputed against the new base).
	for _, m := range log {
		if m.del {
			if ns, ok := nset.Delete(m.p, m.id); ok {
				nset = ns
			}
		} else if ns, ierr := nset.Insert(m.p, m.id); ierr == nil {
			nset = ns
		}
	}
	ix.view.Store(nset)
	ix.compactGen.Add(1)
	// The replaced arenas stay reachable until the in-flight queries
	// holding the old view drop it. The new base lives on the heap: a
	// mapped file goes once the reads that may hold the old view — this
	// cycle's own included — release.
	ix.retire()
	return persistErr
}

// persist rotates a snapshot of the base into path crash-safely,
// re-validating the temp file with the strict checks before the rename
// so a torn or corrupt write can never replace a good file.
// snapshot.VerifyFile runs every check of the decoder while reading the
// file's columns in bounded chunks, so they never become resident.
func persist(path string, set *shard.Set) error {
	return snapshot.AtomicWriteFile(path, set.WriteSnapshot, snapshot.VerifyFile)
}
