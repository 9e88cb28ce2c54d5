package store

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzReplayWAL fuzzes crash recovery: OpenFS over an arbitrary
// wal.jsonl must never panic, must account for every unparseable line
// in Skipped(), and must reach a state it can re-persist — after Close
// (which compacts into the snapshot) a second open replays the store's
// own output with zero skipped lines and the same records.
func FuzzReplayWAL(f *testing.F) {
	seeds := [][]byte{
		[]byte(`{"op":"job","job":{"id":"j1","status":"pending","submitted_at":"2026-01-02T03:04:05Z","request":{"metamodels":["rf"]}}}` + "\n"),
		[]byte(`{"op":"job","job":{"id":"j1","status":"running","submitted_at":"2026-01-02T03:04:05Z"}}` + "\n" +
			`{"op":"result","id":"j1","result":{"ok":true}}` + "\n"),
		[]byte(`{"op":"job","job":{"id":"j2","status":"done","submitted_at":"2026-01-02T03:04:05Z","finished_at":"2026-01-02T03:05:00Z"}}` + "\n" +
			`{"op":"delete","id":"j2"}` + "\n"),
		[]byte(`{"op":"meta","id":"jobs.lastid","result":7}` + "\n" +
			`{"op":"checkpoint","id":"j3","result":{"stage":"labeled"}}` + "\n" +
			`{"op":"checkpoint","id":"j3"}` + "\n"),
		[]byte(`{"op":"unknown-op","id":"x"}` + "\n"),
		[]byte("garbage that is not json\n{\"op\":\"job\"}\n"),
		// Torn tail: a crash mid-append leaves a partial final line.
		[]byte(`{"op":"job","job":{"id":"torn","status":"pending","submitted_at":"2026-01-02T03:04:05Z"}}` + "\n" + `{"op":"job","job":{"id":"t`),
		[]byte("\n\n\n"),
		[]byte(nil),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, wal []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walFile), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		fs, err := OpenFS(dir, FSOptions{NoSync: true})
		if err != nil {
			// I/O-level failure is a clean rejection; replay just must
			// not panic or corrupt anything it cannot read.
			return
		}
		recs, err := fs.List()
		if err != nil {
			t.Fatalf("List after replay: %v", err)
		}
		for _, r := range recs {
			if r.ID == "" {
				t.Fatalf("replay produced a record with an empty id: %+v", r)
			}
		}
		if fs.Skipped() < 0 {
			t.Fatalf("negative skipped count %d", fs.Skipped())
		}
		if err := fs.Close(); err != nil {
			t.Fatalf("close after replay: %v", err)
		}
		fs2, err := OpenFS(dir, FSOptions{NoSync: true})
		if err != nil {
			t.Fatalf("reopen after clean close: %v", err)
		}
		defer fs2.Close()
		if fs2.Skipped() != 0 {
			t.Fatalf("reopen skipped %d lines of the store's own snapshot", fs2.Skipped())
		}
		recs2, err := fs2.List()
		if err != nil {
			t.Fatalf("List after reopen: %v", err)
		}
		if len(recs2) != len(recs) {
			t.Fatalf("reopen changed record count: %d -> %d", len(recs), len(recs2))
		}
	})
}

// FuzzFSMatchesMem is TestFSMatchesMemAcrossReopen over arbitrary
// input: the first byte picks CompactEvery (1–3), each following byte
// pair one store call, and the FS reopened after a crash and after
// Close must hold exactly what a Mem given the same calls does.
func FuzzFSMatchesMem(f *testing.F) {
	f.Add([]byte{1, 0x00, 0x11, 0x12, 0x12})                                     // two submissions, CompactEvery 2
	f.Add([]byte{0, 0x00, 0x05, 0x01, 0x0c, 0x02, 0x01, 0x07, 0xff})             // submit, finish, result, sweep, CompactEvery 1
	f.Add([]byte{2, 0x03, 0x01, 0x04, 0x00, 0x05, 0x02, 0x08, 0x00, 0x06, 0x00}) // checkpoint, its delete, meta, reopen, delete
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 129 {
			ops = ops[:129] // 64 calls keep one input fast
		}
		checkFSMatchesMem(t, t.TempDir(), ops)
	})
}
