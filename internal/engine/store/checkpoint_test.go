package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/reds-go/reds/internal/faultinject"
)

func TestCheckpointRoundtrip(t *testing.T) {
	implementations(t, func(t *testing.T, s Store) {
		if _, ok, err := s.GetCheckpoint("job-1"); ok || err != nil {
			t.Fatalf("checkpoint of unknown job: ok=%v err=%v", ok, err)
		}
		if err := s.PutJob(rec("job-1", "running", time.Now())); err != nil {
			t.Fatalf("put job: %v", err)
		}
		cp1 := json.RawMessage(`{"seq":1,"dataset_hash":"abc"}`)
		if err := s.PutCheckpoint("job-1", cp1); err != nil {
			t.Fatalf("put checkpoint: %v", err)
		}
		got, ok, err := s.GetCheckpoint("job-1")
		if err != nil || !ok || string(got) != string(cp1) {
			t.Fatalf("get checkpoint = %s ok=%v err=%v, want %s", got, ok, err, cp1)
		}

		// Overwrite wins.
		cp2 := json.RawMessage(`{"seq":2,"dataset_hash":"abc"}`)
		if err := s.PutCheckpoint("job-1", cp2); err != nil {
			t.Fatalf("overwrite checkpoint: %v", err)
		}
		if got, _, _ := s.GetCheckpoint("job-1"); string(got) != string(cp2) {
			t.Fatalf("after overwrite: %s, want %s", got, cp2)
		}

		// Checkpoints are invisible to the job listing.
		recs, err := s.List()
		if err != nil || len(recs) != 1 || recs[0].ID != "job-1" {
			t.Fatalf("list with checkpoint = %+v err=%v, want only job-1", recs, err)
		}

		// Empty payload deletes.
		if err := s.PutCheckpoint("job-1", nil); err != nil {
			t.Fatalf("delete checkpoint: %v", err)
		}
		if _, ok, _ := s.GetCheckpoint("job-1"); ok {
			t.Fatalf("checkpoint survived its deletion")
		}
		// Deleting a missing checkpoint is a no-op.
		if err := s.PutCheckpoint("job-1", nil); err != nil {
			t.Fatalf("double-delete checkpoint: %v", err)
		}
	})
}

func TestCheckpointDiesWithJob(t *testing.T) {
	implementations(t, func(t *testing.T, s Store) {
		cp := json.RawMessage(`{"seq":3}`)
		if err := s.PutJob(rec("job-1", "running", time.Now())); err != nil {
			t.Fatalf("put job: %v", err)
		}
		if err := s.PutCheckpoint("job-1", cp); err != nil {
			t.Fatalf("put checkpoint: %v", err)
		}
		if err := s.Delete("job-1"); err != nil {
			t.Fatalf("delete job: %v", err)
		}
		if _, ok, _ := s.GetCheckpoint("job-1"); ok {
			t.Fatalf("checkpoint outlived its deleted job")
		}

		// Sweep removes the checkpoint alongside the expired job.
		old := rec("job-2", "done", time.Now().Add(-2*time.Hour))
		old.FinishedAt = time.Now().Add(-time.Hour)
		if err := s.PutJob(old); err != nil {
			t.Fatalf("put job: %v", err)
		}
		if err := s.PutCheckpoint("job-2", cp); err != nil {
			t.Fatalf("put checkpoint: %v", err)
		}
		ids, err := s.Sweep(time.Now())
		if err != nil || len(ids) != 1 || ids[0] != "job-2" {
			t.Fatalf("sweep = %v err=%v, want [job-2]", ids, err)
		}
		if _, ok, _ := s.GetCheckpoint("job-2"); ok {
			t.Fatalf("checkpoint outlived its swept job")
		}
	})
}

// TestFSCheckpointCrashReplay asserts checkpoints survive both a crash
// (WAL replay, no Close) and a clean restart (snapshot compaction).
func TestFSCheckpointCrashReplay(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, FSOptions{})
	cp := json.RawMessage(`{"seq":7,"dataset_hash":"deadbeef"}`)
	if err := s.PutJob(rec("job-1", "running", time.Now())); err != nil {
		t.Fatalf("put job: %v", err)
	}
	if err := s.PutCheckpoint("job-1", cp); err != nil {
		t.Fatalf("put checkpoint: %v", err)
	}

	// Crash: reopen without Close — the checkpoint replays from the WAL.
	re := mustOpen(t, dir, FSOptions{})
	got, ok, err := re.GetCheckpoint("job-1")
	if err != nil || !ok || string(got) != string(cp) {
		t.Fatalf("after crash replay: %s ok=%v err=%v, want %s", got, ok, err, cp)
	}
	re.Close() // compacts into the snapshot

	// Clean restart: the checkpoint now comes from the snapshot.
	final := mustOpen(t, dir, FSOptions{})
	defer final.Close()
	got, ok, err = final.GetCheckpoint("job-1")
	if err != nil || !ok || string(got) != string(cp) {
		t.Fatalf("after compacted reopen: %s ok=%v err=%v, want %s", got, ok, err, cp)
	}
}

// TestFSCheckpointTornWALFault arms the store.wal.torn injection point:
// the append must fail loudly, nothing must reach the in-memory state,
// and a reopen must truncate the torn tail and keep the complete prefix
// — the exact crash footprint the injector mimics.
func TestFSCheckpointTornWALFault(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, FSOptions{})
	if err := s.PutJob(rec("job-1", "running", time.Now())); err != nil {
		t.Fatalf("put job: %v", err)
	}

	if err := faultinject.Arm("store.wal.torn=1"); err != nil {
		t.Fatalf("arming: %v", err)
	}
	defer faultinject.Disarm()
	if err := s.PutCheckpoint("job-1", json.RawMessage(`{"seq":1}`)); err == nil {
		t.Fatalf("torn-write fault did not surface on the append")
	}
	if _, ok, _ := s.GetCheckpoint("job-1"); ok {
		t.Fatalf("failed append still applied the checkpoint in memory")
	}

	// Reopen over the half-written line, as a restart after the simulated
	// crash would: the torn tail is truncated, not counted as corruption.
	re := mustOpen(t, dir, FSOptions{})
	defer re.Close()
	recs, _ := re.List()
	if len(recs) != 1 || recs[0].ID != "job-1" {
		t.Fatalf("replay over torn write = %+v, want only job-1", recs)
	}
	if _, ok, _ := re.GetCheckpoint("job-1"); ok {
		t.Fatalf("torn checkpoint write survived replay")
	}
	if re.Skipped() != 0 {
		t.Fatalf("torn write counted as corruption (skipped=%d), should be truncated", re.Skipped())
	}
	// The fault fired its once; the reopened store accepts appends again.
	if err := re.PutCheckpoint("job-1", json.RawMessage(`{"seq":2}`)); err != nil {
		t.Fatalf("append after torn write: %v", err)
	}
}

// TestFSFailedAppendLeavesLogAsItWas fails one append at the torn-write
// fault point and then acknowledges another. A reopen after a crash
// must replay both acknowledged writes and skip nothing: a half line
// left in the log would join the next append into one corrupt line.
func TestFSFailedAppendLeavesLogAsItWas(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, FSOptions{})
	if err := s.PutJob(rec("job-1", "running", time.Now())); err != nil {
		t.Fatalf("put job-1: %v", err)
	}
	if err := faultinject.Arm("store.wal.torn=1"); err != nil {
		t.Fatalf("arming: %v", err)
	}
	err := s.PutCheckpoint("job-1", json.RawMessage(`{"seq":1}`))
	faultinject.Disarm()
	if err == nil {
		t.Fatalf("torn-write fault did not surface on the append")
	}
	if err := s.PutJob(rec("job-2", "pending", time.Now())); err != nil {
		t.Fatalf("put job-2 after the failed append: %v", err)
	}

	// No Close: a crash, so replay reads the log as the appends left it.
	re := mustOpen(t, dir, FSOptions{})
	defer re.Close()
	recs, _ := re.List()
	if len(recs) != 2 || recs[0].ID != "job-1" || recs[1].ID != "job-2" {
		t.Fatalf("replay after a failed append = %+v, want job-1 and job-2", recs)
	}
	if re.Skipped() != 0 {
		t.Fatalf("replay skipped %d lines, want 0", re.Skipped())
	}
}

// TestFSFailedSyncLeavesLogAsItWas fails the fsync of one append in
// the default fsync-per-append mode and then acknowledges another. The
// failed write reached the log before its fsync failed, so unless it is
// taken out again a reopen after a crash replays a write its caller was
// told had failed.
func TestFSFailedSyncLeavesLogAsItWas(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, FSOptions{})
	if err := s.PutJob(rec("job-1", "running", time.Now())); err != nil {
		t.Fatalf("put job-1: %v", err)
	}
	if err := faultinject.Arm("store.wal.sync=1"); err != nil {
		t.Fatalf("arming: %v", err)
	}
	err := s.PutJob(rec("job-2", "pending", time.Now()))
	faultinject.Disarm()
	if err == nil {
		t.Fatalf("failed fsync did not surface on the append")
	}
	if err := s.PutJob(rec("job-3", "pending", time.Now())); err != nil {
		t.Fatalf("put job-3 after the failed fsync: %v", err)
	}

	crash(t, s)
	re := mustOpen(t, dir, FSOptions{})
	defer re.Close()
	recs, _ := re.List()
	if len(recs) != 2 || recs[0].ID != "job-1" || recs[1].ID != "job-3" {
		t.Fatalf("replay after a failed fsync = %+v, want job-1 and job-3", recs)
	}
	if re.Skipped() != 0 {
		t.Fatalf("replay skipped %d lines, want 0", re.Skipped())
	}
}

// TestFSFailedFlushRefusesAppends fails the batched flusher's fsync. A
// retried fsync can report success for pages the failed one dropped, so
// the store must refuse every later append until it is reopened.
func TestFSFailedFlushRefusesAppends(t *testing.T) {
	s := mustOpen(t, t.TempDir(), FSOptions{FsyncInterval: time.Millisecond})
	defer s.Close()
	if err := faultinject.Arm("store.wal.sync=1"); err != nil {
		t.Fatalf("arming: %v", err)
	}
	defer faultinject.Disarm()
	if err := s.PutJob(rec("job-1", "running", time.Now())); err != nil {
		t.Fatalf("put job-1: %v", err)
	}
	// Wait for the flusher to have synced job-1 or failed to.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		flushed := !s.dirty || s.walErr != nil
		s.mu.Unlock()
		if flushed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the flusher never synced the log")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.PutJob(rec("job-2", "pending", time.Now())); err == nil {
		t.Fatalf("append after a failed flush succeeded; want the store to refuse until reopened")
	}
}

// TestFSFailedUndoRefusesAppends fails an append whose truncate back
// fails too. The store can no longer vouch for its log, so every later
// append fails until a reopen, whose replay keeps what was
// acknowledged.
func TestFSFailedUndoRefusesAppends(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, FSOptions{})
	if err := s.PutJob(rec("job-1", "running", time.Now())); err != nil {
		t.Fatalf("put job-1: %v", err)
	}
	// A read-only handle fails both the write and the truncate.
	ro, err := os.Open(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatalf("opening log read-only: %v", err)
	}
	defer ro.Close()
	wal := s.wal
	s.wal = ro
	if err := s.PutJob(rec("job-2", "pending", time.Now())); err == nil {
		t.Fatalf("append over a read-only log succeeded")
	}
	s.wal = wal
	if err := s.PutJob(rec("job-3", "pending", time.Now())); err == nil {
		t.Fatalf("append after an undo that failed succeeded; want the store to refuse until reopened")
	}

	re := mustOpen(t, dir, FSOptions{})
	defer re.Close()
	recs, _ := re.List()
	if len(recs) != 1 || recs[0].ID != "job-1" {
		t.Fatalf("replay = %+v, want only job-1", recs)
	}
	if err := re.PutJob(rec("job-4", "pending", time.Now())); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
}
