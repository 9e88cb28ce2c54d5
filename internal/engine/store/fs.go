package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/reds-go/reds/internal/faultinject"
	"github.com/reds-go/reds/internal/telemetry"
)

// File layout of an FS store directory:
//
//	snapshot.jsonl   compacted full state, rewritten atomically
//	wal.jsonl        write-ahead log of entries since the snapshot
//
// Every commit appends its entries, one JSON line each, to the
// write-ahead log (fsynced by default) before it is applied and
// acknowledged. Open replays the snapshot and then the log through the
// same apply; a partial trailing line — the footprint of a crash
// mid-append — is discarded and truncated away, which is exactly the
// WAL contract: an append whose write never completed was never
// acknowledged to the engine. A log that holds CompactEvery entries is
// folded into a fresh snapshot (written to a temp file, fsynced,
// renamed) and truncated before the next append.
const (
	snapshotFile = "snapshot.jsonl"
	walFile      = "wal.jsonl"
)

// faultWALTorn is the fault-injection point for torn log writes: when
// armed (value "once" by convention), one append writes only half of
// its buffer and fails, like a short write. The store must truncate the
// half line away before the next append, as replay must after a crash
// mid-write.
const faultWALTorn = "store.wal.torn"

// faultWALSync is the fault-injection point for failed log fsyncs: when
// armed, one fsync of the log fails after its write landed, as a disk
// error would.
const faultWALSync = "store.wal.sync"

// FSOptions tune the file store.
type FSOptions struct {
	// CompactEvery folds the write-ahead log into the snapshot once it
	// holds this many entries, before the next append (default 4096).
	CompactEvery int
	// NoSync skips the per-append fsync. Appends then survive process
	// crashes (the OS page cache holds them) but not power loss; meant
	// for tests and throwaway stores.
	NoSync bool
	// FsyncInterval > 0 coalesces fsyncs: appends return after the
	// write() and a background flusher syncs the log at most once per
	// interval, so a burst of submissions shares a handful of flushes
	// instead of serializing on one disk flush each. The durability
	// window widens accordingly — a power loss can drop up to one
	// interval of acknowledged appends (ordinary process crashes lose
	// nothing; the page cache survives them). 0 keeps the historical
	// fsync-per-append behavior. Ignored when NoSync is set.
	FsyncInterval time.Duration
	// Metrics is the registry for the store's instruments (WAL append
	// and fsync latency, snapshot duration, replay counters, log
	// length). nil gets a private registry.
	Metrics *telemetry.Registry
}

func (o FSOptions) withDefaults() FSOptions {
	if o.CompactEvery <= 0 {
		o.CompactEvery = 4096
	}
	return o
}

// FS is the durable Store: the shared state (reads never touch the
// disk) with the append-only log described above as its log.
type FS struct {
	state
	dir  string
	opts FSOptions

	// flushDone stops the background flusher of a batched-fsync store;
	// flushStop makes Close idempotent about it.
	flushDone chan struct{}
	flushStop sync.Once
	flushWG   sync.WaitGroup

	// Durability instruments; created before replay so startup work is
	// visible too.
	mAppends       *telemetry.Counter
	mFsync         *telemetry.Histogram
	mSnapshot      *telemetry.Histogram
	mCompactions   *telemetry.Counter
	mReplayEntries *telemetry.Counter
	mReplaySkipped *telemetry.Counter

	// Guarded by state.mu.
	wal      *os.File
	walSize  int64 // the log's length after its last good append
	walErr   error // a failed append that could not be undone
	walCount int
	dirty    bool // unsynced log appends (batched-fsync mode only)
	skipped  int
}

// OpenFS opens (creating if needed) a file store in dir and replays its
// state. A directory left behind by a crashed process is recovered: the
// snapshot is loaded, the log replayed on top, and a torn trailing
// write truncated away.
func OpenFS(dir string, opts FSOptions) (*FS, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	f := &FS{
		dir:  dir,
		opts: opts,
		mAppends: reg.Counter("reds_store_wal_appends_total",
			"Entries appended to the write-ahead log."),
		mFsync: reg.Histogram("reds_store_fsync_seconds",
			"Latency of write-ahead log fsync calls.",
			telemetry.ExponentialBuckets(0.0001, 4, 10)),
		mSnapshot: reg.Histogram("reds_store_snapshot_seconds",
			"Duration of snapshot compactions (marshal, write, fsync, rename, log truncate).",
			telemetry.ExponentialBuckets(0.001, 4, 10)),
		mCompactions: reg.Counter("reds_store_compactions_total",
			"Snapshot compactions completed."),
		mReplayEntries: reg.Counter("reds_store_replay_entries_total",
			"Snapshot and log entries replayed at open."),
		mReplaySkipped: reg.Counter("reds_store_replay_skipped_total",
			"Corrupt lines skipped during replay."),
	}
	f.init(f.appendLocked)
	reg.GaugeFunc("reds_store_wal_length_entries",
		"Entries currently in the write-ahead log since the last compaction.",
		func() float64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			return float64(f.walCount)
		})
	// A leftover temp snapshot is an interrupted compaction that never
	// renamed into place; the snapshot+log pair is still authoritative.
	_ = os.Remove(filepath.Join(dir, snapshotFile+".tmp"))

	if err := f.replayFile(filepath.Join(dir, snapshotFile), false); err != nil {
		return nil, err
	}
	if err := f.replayFile(filepath.Join(dir, walFile), true); err != nil {
		return nil, err
	}
	wal, err := os.OpenFile(filepath.Join(dir, walFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening log: %w", err)
	}
	fi, err := wal.Stat()
	if err != nil {
		wal.Close()
		return nil, fmt.Errorf("store: opening log: %w", err)
	}
	f.wal, f.walSize = wal, fi.Size()
	// A replayed log at the threshold is folded into the snapshot now,
	// not at the next append, so a process that crash-restarts before
	// appending does not replay it again.
	if f.walCount >= f.opts.CompactEvery {
		if err := f.compactLocked(); err != nil {
			wal.Close()
			return nil, err
		}
	}
	if f.opts.FsyncInterval > 0 && !f.opts.NoSync {
		f.flushDone = make(chan struct{})
		f.flushWG.Add(1)
		go f.flusher()
	}
	return f, nil
}

// flusher syncs batched log appends once per FsyncInterval. A failed
// sync may have dropped the pages it could not write, and a later sync
// can report success without them (Rebello et al., USENIX ATC 2020), so
// it is not retried: the store stops taking appends until a reopen, and
// replay decides what survived.
func (f *FS) flusher() {
	defer f.flushWG.Done()
	t := time.NewTicker(f.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-f.flushDone:
			return
		case <-t.C:
			f.mu.Lock()
			if f.dirty && f.walErr == nil {
				if err := f.syncWAL(); err != nil {
					f.walErr = fmt.Errorf("store: syncing log: %w; reopen the store", err)
				} else {
					f.dirty = false
				}
			}
			f.mu.Unlock()
		}
	}
}

// stopFlusher halts the background flusher, if any, and waits for it.
// Must be called without holding mu (the flusher takes it).
func (f *FS) stopFlusher() {
	if f.flushDone == nil {
		return
	}
	f.flushStop.Do(func() { close(f.flushDone) })
	f.flushWG.Wait()
}

// replayFile applies every complete entry of a JSONL file to the
// state. For the write-ahead log (truncateTail) a partial
// final line is removed from the file so subsequent appends start on a
// clean line boundary; unparseable complete lines are counted and
// skipped rather than failing the whole store.
func (f *FS) replayFile(path string, truncateTail bool) error {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: reading %s: %w", path, err)
	}
	validLen := len(raw)
	if truncateTail {
		if i := bytes.LastIndexByte(raw, '\n'); i < len(raw)-1 {
			validLen = i + 1 // torn final write: everything after the last newline
			raw = raw[:validLen]
		}
	}
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if truncateTail {
			f.walCount++ // replayed log entries count toward compaction
		}
		var e walEntry
		if json.Unmarshal(line, &e) != nil || !f.apply(e) {
			f.skipped++
			f.mReplaySkipped.Inc()
			continue
		}
		f.mReplayEntries.Inc()
	}
	if truncateTail {
		if fi, err := os.Stat(path); err == nil && fi.Size() > int64(validLen) {
			if err := os.Truncate(path, int64(validLen)); err != nil {
				return fmt.Errorf("store: truncating torn log tail: %w", err)
			}
		}
	}
	return nil
}

// syncWAL is wal.Sync with its latency recorded — the store's dominant
// cost under fsync-per-append, worth watching in production.
func (f *FS) syncWAL() error {
	start := time.Now()
	err := f.wal.Sync()
	f.mFsync.Observe(time.Since(start).Seconds())
	if err == nil && faultinject.Enabled() && faultinject.Once(faultWALSync) {
		err = fmt.Errorf("%s fault injected: failed fsync", faultWALSync)
	}
	return err
}

// appendLocked is the store's log: it writes entries to the write-ahead
// log as one buffer with a single fsync. A log that already holds
// CompactEvery entries is compacted first; every entry in it has been
// applied by then, so the snapshot misses none. Caller holds mu.
func (f *FS) appendLocked(entries []walEntry) error {
	if f.walErr != nil {
		return f.walErr
	}
	if f.walCount >= f.opts.CompactEvery {
		if err := f.compactLocked(); err != nil {
			return err
		}
	}
	lines, err := encodeLines(entries)
	if err != nil {
		return fmt.Errorf("store: encoding log entry: %w", err)
	}
	if faultinject.Enabled() && faultinject.Once(faultWALTorn) {
		_, _ = f.wal.Write(lines[:len(lines)/2])
		return f.undoAppendLocked(fmt.Errorf("store: %s fault injected: torn log write", faultWALTorn))
	}
	if _, err := f.wal.Write(lines); err != nil {
		return f.undoAppendLocked(fmt.Errorf("store: appending to log: %w", err))
	}
	switch {
	case f.opts.NoSync:
	case f.opts.FsyncInterval > 0:
		f.dirty = true // the flusher syncs within one interval
	default:
		if err := f.syncWAL(); err != nil {
			return f.undoAppendLocked(fmt.Errorf("store: syncing log: %w", err))
		}
	}
	f.walSize += int64(len(lines))
	f.walCount += len(entries)
	f.mAppends.Add(int64(len(entries)))
	return nil
}

// undoAppendLocked truncates the log back to its last good append after
// a write or its fsync failed, so whatever part of the write reached the
// file can neither join the next append's line into one that replay
// skips nor replay as a write its caller was told had failed. If the
// truncate fails too, every later append returns the error until the
// store is reopened and replay decides what survived. Caller holds mu.
func (f *FS) undoAppendLocked(err error) error {
	if terr := f.wal.Truncate(f.walSize); terr != nil {
		f.walErr = fmt.Errorf("store: log left with a failed append (truncating: %v); reopen the store: %w", terr, err)
		return f.walErr
	}
	return err
}

// compactLocked folds the current state into a fresh snapshot and
// truncates the log: marshal everything to snapshot.jsonl.tmp, fsync,
// rename over snapshot.jsonl, fsync the directory, then empty the log.
// A crash anywhere in that sequence is safe — the rename is atomic and
// replaying a stale log over the new snapshot re-applies the same
// upserts. Caller holds mu.
func (f *FS) compactLocked() error {
	start := time.Now()
	defer func() { f.mSnapshot.Observe(time.Since(start).Seconds()) }()
	var entries []walEntry
	for _, rec := range sortedRecords(f.jobs) {
		entries = append(entries, walEntry{Op: opJob, Job: &rec})
	}
	for _, payloads := range []struct {
		op string
		m  map[string]json.RawMessage
	}{{opResult, f.results}, {opMeta, f.metas}, {opCheckpoint, f.checkpoints}} {
		for _, id := range sortedKeys(payloads.m) {
			entries = append(entries, walEntry{Op: payloads.op, ID: id, Result: payloads.m[id]})
		}
	}
	lines, err := encodeLines(entries)
	if err != nil {
		return fmt.Errorf("store: encoding snapshot: %w", err)
	}
	tmp := filepath.Join(f.dir, snapshotFile+".tmp")
	file, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating snapshot: %w", err)
	}
	if _, err := file.Write(lines); err != nil {
		file.Close()
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	if !f.opts.NoSync {
		if err := file.Sync(); err != nil {
			file.Close()
			return fmt.Errorf("store: syncing snapshot: %w", err)
		}
	}
	if err := file.Close(); err != nil {
		return fmt.Errorf("store: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(f.dir, snapshotFile)); err != nil {
		return fmt.Errorf("store: publishing snapshot: %w", err)
	}
	if !f.opts.NoSync {
		if d, err := os.Open(f.dir); err == nil {
			_ = d.Sync() // make the rename durable; best-effort per platform
			d.Close()
		}
	}
	if err := f.wal.Truncate(0); err != nil {
		return fmt.Errorf("store: truncating log: %w", err)
	}
	f.walSize, f.walCount = 0, 0
	f.dirty = false // the snapshot now holds everything the log did
	f.mCompactions.Inc()
	return nil
}

// Skipped returns the number of corrupt lines ignored during replay —
// non-zero means the directory had damage beyond a torn final write.
func (f *FS) Skipped() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.skipped
}

// Close stops the batched-fsync flusher (syncing anything still
// pending), compacts the outstanding log into the snapshot and releases
// the file handle. The store must not be used afterwards.
func (f *FS) Close() error {
	f.stopFlusher()
	f.mu.Lock()
	defer f.mu.Unlock()
	var err error
	if f.dirty {
		err = f.syncWAL()
		f.dirty = false
	}
	if f.walCount > 0 {
		if cerr := f.compactLocked(); err == nil {
			err = cerr
		}
	}
	if cerr := f.wal.Close(); err == nil {
		err = cerr
	}
	return err
}

// encodeLines renders entries as JSON lines, the format of the log and
// the snapshot alike.
func encodeLines(entries []walEntry) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false) // keep rule strings like "x <= 1" readable
	for _, e := range entries {
		if err := enc.Encode(e); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

func sortedKeys(m map[string]json.RawMessage) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
