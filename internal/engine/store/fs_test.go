package store

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func mustOpen(t *testing.T, dir string, opts FSOptions) *FS {
	t.Helper()
	s, err := OpenFS(dir, opts)
	if err != nil {
		t.Fatalf("OpenFS(%s): %v", dir, err)
	}
	return s
}

// TestFSReplay closes a store and reopens the directory: the full state
// — records, upserts, results, deletes — must come back.
func TestFSReplay(t *testing.T) {
	dir := t.TempDir()
	t0 := time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC)

	s := mustOpen(t, dir, FSOptions{})
	for _, id := range []string{"job-1", "job-2", "job-3"} {
		if err := s.PutJob(rec(id, "pending", t0)); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	// Transition upserts carry a nil Request; replay must merge the
	// stored request back in.
	done := rec("job-2", "done", t0)
	done.FinishedAt = t0.Add(time.Minute)
	done.Request = nil
	if err := s.PutJob(done); err != nil {
		t.Fatalf("upsert: %v", err)
	}
	if err := s.PutResult("job-2", json.RawMessage(`{"best":{"rule":"x <= 1"}}`)); err != nil {
		t.Fatalf("put result: %v", err)
	}
	if err := s.Delete("job-3"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	re := mustOpen(t, dir, FSOptions{})
	defer re.Close()
	recs, err := re.List()
	if err != nil {
		t.Fatalf("list after reopen: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want 2: %+v", len(recs), recs)
	}
	byID := map[string]Record{}
	for _, r := range recs {
		byID[r.ID] = r
	}
	if byID["job-1"].Status != "pending" || byID["job-2"].Status != "done" {
		t.Fatalf("replayed statuses wrong: %+v", byID)
	}
	if string(byID["job-2"].Request) != `{"function":"morris","n":10}` {
		t.Fatalf("replay lost the request of a nil-request transition: %q", byID["job-2"].Request)
	}
	res, ok, err := re.GetResult("job-2")
	if err != nil || !ok || !strings.Contains(string(res), "x <= 1") {
		t.Fatalf("result after reopen = %s ok=%v err=%v", res, ok, err)
	}
	if re.Skipped() != 0 {
		t.Fatalf("clean reopen skipped %d lines", re.Skipped())
	}
}

// TestFSCrashReplayWithoutClose reopens a directory whose store was
// never Closed (no final compaction): replay comes purely from the
// write-ahead log.
func TestFSCrashReplayWithoutClose(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, FSOptions{})
	if err := s.PutJob(rec("job-1", "running", time.Now())); err != nil {
		t.Fatalf("put: %v", err)
	}
	// Simulate a crash: drop the handle without Close. The wal fsync on
	// append means the entry is already on disk.
	re := mustOpen(t, dir, FSOptions{})
	defer re.Close()
	recs, _ := re.List()
	if len(recs) != 1 || recs[0].ID != "job-1" || recs[0].Status != "running" {
		t.Fatalf("crash replay lost state: %+v", recs)
	}
}

// TestFSTornTail appends a partial line to the log — the footprint of a
// crash mid-write — and asserts the store recovers the complete prefix,
// truncates the garbage, and keeps accepting appends.
func TestFSTornTail(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, FSOptions{})
	if err := s.PutJob(rec("job-1", "pending", time.Now())); err != nil {
		t.Fatalf("put: %v", err)
	}
	// No Close: the snapshot stays empty, everything lives in the log.
	walPath := filepath.Join(dir, walFile)
	wal, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("opening wal: %v", err)
	}
	if _, err := wal.WriteString(`{"op":"job","job":{"id":"job-torn","sta`); err != nil {
		t.Fatalf("appending torn line: %v", err)
	}
	wal.Close()

	re := mustOpen(t, dir, FSOptions{})
	recs, _ := re.List()
	if len(recs) != 1 || recs[0].ID != "job-1" {
		t.Fatalf("torn-tail replay = %+v, want only job-1", recs)
	}
	if re.Skipped() != 0 {
		t.Fatalf("torn tail counted as corruption (skipped=%d), should be truncated", re.Skipped())
	}
	// The tail must be gone from disk so the next append starts clean.
	raw, _ := os.ReadFile(walPath)
	if strings.Contains(string(raw), "job-torn") {
		t.Fatalf("torn tail still on disk: %s", raw)
	}
	if err := re.PutJob(rec("job-2", "pending", time.Now())); err != nil {
		t.Fatalf("append after truncation: %v", err)
	}
	re.Close()

	final := mustOpen(t, dir, FSOptions{})
	defer final.Close()
	recs, _ = final.List()
	if len(recs) != 2 {
		t.Fatalf("post-truncation state = %+v, want 2 records", recs)
	}
}

// TestFSCorruptMidLine damages a complete line in the middle of the log:
// the store must skip it, count it, and keep the rest.
func TestFSCorruptMidLine(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, FSOptions{})
	_ = s.PutJob(rec("job-1", "pending", time.Now()))
	_ = s.PutJob(rec("job-2", "pending", time.Now()))

	walPath := filepath.Join(dir, walFile)
	raw, _ := os.ReadFile(walPath)
	lines := strings.SplitAfter(string(raw), "\n")
	lines[0] = strings.Replace(lines[0], `"op":"job"`, `"op:"job"`, 1) // break JSON
	if err := os.WriteFile(walPath, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatalf("rewriting wal: %v", err)
	}

	re := mustOpen(t, dir, FSOptions{})
	defer re.Close()
	recs, _ := re.List()
	if len(recs) != 1 || recs[0].ID != "job-2" {
		t.Fatalf("corrupt-line replay = %+v, want only job-2", recs)
	}
	if re.Skipped() != 1 {
		t.Fatalf("skipped = %d, want 1", re.Skipped())
	}
}

// crash drops an FS the way a killed process does: its log handle
// closes, and nothing is synced or compacted.
func crash(t *testing.T, f *FS) {
	t.Helper()
	if err := f.wal.Close(); err != nil {
		t.Fatalf("dropping the log handle: %v", err)
	}
}

// TestFSCompaction drives the log past CompactEvery and asserts the
// state folds into the snapshot, the log empties, and a reopen right
// after the compacting put, with no Close to re-snapshot, sees every
// acknowledged put.
func TestFSCompaction(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, FSOptions{CompactEvery: 4})
	t0 := time.Now()
	for i, id := range []string{"job-1", "job-2", "job-3", "job-4", "job-5"} {
		if err := s.PutJob(rec(id, "pending", t0.Add(time.Duration(i)*time.Second))); err != nil {
			t.Fatalf("put %s: %v", id, err)
		}
	}
	// 5 appends with CompactEvery=4: at least one compaction happened.
	snap, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil || len(snap) == 0 {
		t.Fatalf("no snapshot written after compaction threshold: %v", err)
	}
	wal, _ := os.ReadFile(filepath.Join(dir, walFile))
	if strings.Count(string(wal), "\n") >= 5 {
		t.Fatalf("log not truncated by compaction: %d bytes", len(wal))
	}
	crash(t, s)

	re := mustOpen(t, dir, FSOptions{})
	defer re.Close()
	recs, _ := re.List()
	if len(recs) != 5 {
		t.Fatalf("after compaction+crash reopen: %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if want := []string{"job-1", "job-2", "job-3", "job-4", "job-5"}[i]; r.ID != want {
			t.Fatalf("order after compaction: got %s at %d, want %s", r.ID, i, want)
		}
	}
}

// TestFSNoOpCallsLogNothing asserts that deleting an unknown id or an
// absent checkpoint appends nothing to the log.
func TestFSNoOpCallsLogNothing(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, FSOptions{})
	defer s.Close()
	if err := s.PutJob(rec("job-1", "pending", time.Now())); err != nil {
		t.Fatalf("put: %v", err)
	}
	before, _ := os.ReadFile(filepath.Join(dir, walFile))
	if err := s.Delete("no-such-job"); err != nil {
		t.Fatalf("delete unknown: %v", err)
	}
	if err := s.PutCheckpoint("job-1", nil); err != nil {
		t.Fatalf("delete absent checkpoint: %v", err)
	}
	if after, _ := os.ReadFile(filepath.Join(dir, walFile)); len(after) != len(before) {
		t.Fatalf("no-op calls grew the log from %d to %d bytes", len(before), len(after))
	}
}

// TestFSMatchesMemAcrossReopen sends seeded random call sequences to a
// Mem and to an FS that compacts every 1–3 entries: reopened after a
// crash and after Close, the FS must hold exactly what the Mem does.
func TestFSMatchesMemAcrossReopen(t *testing.T) {
	base := t.TempDir()
	for seed := 0; seed < 300; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		ops := make([]byte, 1+2*(1+rng.Intn(24)))
		rng.Read(ops)
		checkFSMatchesMem(t, filepath.Join(base, strconv.Itoa(seed)), ops)
	}
}

// opIDs are the job ids and meta keys the op sequences of
// checkFSMatchesMem write; few, so calls collide.
var opIDs = []string{"job-a", "job-b", "job-c"}

// checkFSMatchesMem decodes ops into a CompactEvery of 1–3 (first byte)
// and a sequence of store calls (two bytes each), sends every call to a
// Mem and to an FS over dir, and asserts that both answer it alike and
// that the FS, reopened after a crash and after Close, holds exactly
// what the Mem does. One call kind drops and reopens the FS
// mid-sequence.
func checkFSMatchesMem(t *testing.T, dir string, ops []byte) {
	t.Helper()
	if len(ops) == 0 {
		return
	}
	defer func() {
		if t.Failed() {
			t.Logf("ops %x", ops)
		}
	}()
	opts := FSOptions{CompactEvery: 1 + int(ops[0]%3), NoSync: true}
	t0 := time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC)
	mem := NewMem()
	fs := mustOpen(t, dir, opts)
	both := func(call string, do func(Store) (any, error)) {
		t.Helper()
		want, wantErr := do(mem)
		got, gotErr := do(fs)
		if (wantErr == nil) != (gotErr == nil) || !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: mem (%v, %v), fs (%v, %v)", call, want, wantErr, got, gotErr)
		}
	}
	for i := 1; i+1 < len(ops); i += 2 {
		a, b := ops[i], ops[i+1]
		id := opIDs[int(a>>4)%len(opIDs)]
		payload := json.RawMessage(fmt.Sprintf(`{"v":%d}`, b))
		switch kind := a % 9; kind {
		case 0, 1: // a submission (with a request) or a transition (without)
			r := Record{ID: id, Status: "pending", SubmittedAt: t0.Add(time.Duration(b%4) * time.Second)}
			if b&4 != 0 {
				r.Status, r.FinishedAt = "done", t0.Add(time.Duration(b>>3)*time.Minute)
			}
			if kind == 0 {
				r.Request = payload
			}
			both(fmt.Sprintf("PutJob(%+v)", r), func(s Store) (any, error) { return nil, s.PutJob(r) })
		case 2:
			both("PutResult "+id, func(s Store) (any, error) { return nil, s.PutResult(id, payload) })
		case 3:
			both("PutCheckpoint "+id, func(s Store) (any, error) { return nil, s.PutCheckpoint(id, payload) })
		case 4:
			both("PutCheckpoint(empty) "+id, func(s Store) (any, error) { return nil, s.PutCheckpoint(id, nil) })
		case 5:
			both("PutMeta "+id, func(s Store) (any, error) { return nil, s.PutMeta(id, payload) })
		case 6:
			both("Delete "+id, func(s Store) (any, error) { return nil, s.Delete(id) })
		case 7:
			cutoff := t0.Add(time.Duration(b>>3) * time.Minute)
			both("Sweep", func(s Store) (any, error) { return s.Sweep(cutoff) })
		case 8:
			crash(t, fs)
			fs = mustOpen(t, dir, opts)
		}
	}
	sameState(t, "live", mem, fs)
	crash(t, fs)
	fs = mustOpen(t, dir, opts)
	sameState(t, "reopened after a crash", mem, fs)
	if err := fs.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	fs = mustOpen(t, dir, opts)
	defer fs.Close()
	sameState(t, "reopened after Close", mem, fs)
}

// sameState asserts that got lists and returns exactly what want does
// for every id and meta key in opIDs.
func sameState(t *testing.T, when string, want, got Store) {
	t.Helper()
	dump := func(s Store) string {
		recs, err := s.List()
		var b strings.Builder
		fmt.Fprintf(&b, "list err=%v\n", err)
		_ = json.NewEncoder(&b).Encode(recs)
		for _, id := range opIDs {
			for _, get := range []func(string) (json.RawMessage, bool, error){s.GetResult, s.GetCheckpoint, s.GetMeta} {
				v, ok, err := get(id)
				fmt.Fprintf(&b, "%s %s %v %v\n", id, v, ok, err)
			}
		}
		return b.String()
	}
	if w, g := dump(want), dump(got); w != g {
		t.Fatalf("%s: fs state differs from mem\nmem:\n%s\nfs:\n%s", when, w, g)
	}
}

// TestFSCompactionOnOpen reopens a never-closed directory whose log
// already exceeds the threshold: open itself must fold it into the
// snapshot so repeated crash-restarts cannot grow the log forever.
func TestFSCompactionOnOpen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, FSOptions{CompactEvery: 100})
	for _, id := range []string{"job-1", "job-2", "job-3"} {
		_ = s.PutJob(rec(id, "pending", time.Now()))
	}
	// No Close: wal has 3 entries, snapshot none.
	re := mustOpen(t, dir, FSOptions{CompactEvery: 2})
	defer re.Close()
	snap, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil || len(snap) == 0 {
		t.Fatalf("open did not compact an oversized log: %v", err)
	}
	wal, _ := os.ReadFile(filepath.Join(dir, walFile))
	if len(wal) != 0 {
		t.Fatalf("log not truncated by open-time compaction: %d bytes", len(wal))
	}
	recs, _ := re.List()
	if len(recs) != 3 {
		t.Fatalf("open-time compaction lost records: %+v", recs)
	}
}

// TestFSMeta exercises the meta namespace: roundtrip, overwrite,
// survival across reopen and compaction, isolation from List/Sweep.
func TestFSMeta(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, FSOptions{CompactEvery: 3})
	if _, ok, err := s.GetMeta("next_id"); ok || err != nil {
		t.Fatalf("meta before put: ok=%v err=%v", ok, err)
	}
	if err := s.PutMeta("next_id", json.RawMessage(`7`)); err != nil {
		t.Fatalf("put meta: %v", err)
	}
	if err := s.PutMeta("next_id", json.RawMessage(`9`)); err != nil {
		t.Fatalf("overwrite meta: %v", err)
	}
	// Push past CompactEvery so the meta must survive the snapshot.
	t0 := time.Now()
	old := rec("job-1", "done", t0)
	old.FinishedAt = t0
	_ = s.PutJob(old)
	_ = s.PutJob(rec("job-2", "pending", t0))
	if recs, _ := s.List(); len(recs) != 2 {
		t.Fatalf("meta leaked into List: %+v", recs)
	}
	if _, err := s.Sweep(t0.Add(time.Hour)); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	s.Close()

	re := mustOpen(t, dir, FSOptions{})
	defer re.Close()
	v, ok, err := re.GetMeta("next_id")
	if err != nil || !ok || string(v) != "9" {
		t.Fatalf("meta after sweep+compaction+reopen = %s ok=%v err=%v, want 9", v, ok, err)
	}
}

// TestFSInterruptedCompaction plants a leftover snapshot temp file (a
// compaction that crashed before rename) and asserts open ignores it.
func TestFSInterruptedCompaction(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, FSOptions{})
	_ = s.PutJob(rec("job-1", "pending", time.Now()))
	if err := os.WriteFile(filepath.Join(dir, snapshotFile+".tmp"), []byte("half-written gar"), 0o644); err != nil {
		t.Fatalf("planting tmp: %v", err)
	}
	re := mustOpen(t, dir, FSOptions{})
	defer re.Close()
	recs, _ := re.List()
	if len(recs) != 1 {
		t.Fatalf("tmp leftover broke replay: %+v", recs)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotFile+".tmp")); !os.IsNotExist(err) {
		t.Fatalf("leftover tmp not cleaned up")
	}
}

// TestFSSweepSurvivesReopen sweeps, reopens, and asserts the swept
// records stay gone (the deletes were logged).
func TestFSSweepSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	t0 := time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC)
	s := mustOpen(t, dir, FSOptions{})
	old := rec("job-old", "done", t0)
	old.FinishedAt = t0
	_ = s.PutJob(old)
	_ = s.PutResult("job-old", json.RawMessage(`{}`))
	_ = s.PutJob(rec("job-live", "pending", t0))
	if swept, err := s.Sweep(t0.Add(time.Hour)); err != nil || len(swept) != 1 {
		t.Fatalf("sweep = %v, %v", swept, err)
	}
	// No Close — the delete must already be durable in the log.
	re := mustOpen(t, dir, FSOptions{})
	defer re.Close()
	recs, _ := re.List()
	if len(recs) != 1 || recs[0].ID != "job-live" {
		t.Fatalf("sweep not durable: %+v", recs)
	}
	if _, ok, _ := re.GetResult("job-old"); ok {
		t.Fatalf("swept result resurrected")
	}
}

// TestFSFsyncIntervalDurableAfterClose exercises the batched-fsync mode
// end to end: appends are acknowledged without a per-append sync, the
// background flusher (or Close at the latest) syncs them, and a reopen
// serves the full state back.
func TestFSFsyncIntervalDurableAfterClose(t *testing.T) {
	dir := t.TempDir()
	t0 := time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC)

	s := mustOpen(t, dir, FSOptions{FsyncInterval: 10 * time.Millisecond})
	for i := 0; i < 50; i++ {
		if err := s.PutJob(rec(fmt.Sprintf("job-%03d", i), "pending", t0)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := s.PutResult("job-001", json.RawMessage(`{"ok":true}`)); err != nil {
		t.Fatalf("put result: %v", err)
	}
	// Give the flusher a couple of windows, then close (which performs
	// the final error-checked sync regardless).
	time.Sleep(30 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	re := mustOpen(t, dir, FSOptions{})
	defer re.Close()
	recs, err := re.List()
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(recs) != 50 {
		t.Fatalf("reopened %d records, want 50", len(recs))
	}
	if raw, ok, _ := re.GetResult("job-001"); !ok || string(raw) != `{"ok":true}` {
		t.Fatalf("result lost across batched-fsync close: ok=%v raw=%s", ok, raw)
	}
}

// TestFSFsyncIntervalConcurrent hammers a batched-fsync store from
// several goroutines while the flusher runs — meaningful under -race.
func TestFSFsyncIntervalConcurrent(t *testing.T) {
	dir := t.TempDir()
	t0 := time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC)
	s := mustOpen(t, dir, FSOptions{FsyncInterval: time.Millisecond, CompactEvery: 64})

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := fmt.Sprintf("job-%d-%03d", w, i)
				if err := s.PutJob(rec(id, "pending", t0)); err != nil {
					t.Errorf("put %s: %v", id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	re := mustOpen(t, dir, FSOptions{})
	defer re.Close()
	recs, _ := re.List()
	if len(recs) != 200 {
		t.Fatalf("reopened %d records, want 200", len(recs))
	}
}
