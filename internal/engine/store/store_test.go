package store

import (
	"encoding/json"
	"testing"
	"time"
)

// implementations runs a subtest against every Store implementation so
// Mem and FS stay behaviorally interchangeable.
func implementations(t *testing.T, fn func(t *testing.T, s Store)) {
	t.Helper()
	t.Run("mem", func(t *testing.T) { fn(t, NewMem()) })
	t.Run("fs", func(t *testing.T) {
		s, err := OpenFS(t.TempDir(), FSOptions{})
		if err != nil {
			t.Fatalf("OpenFS: %v", err)
		}
		t.Cleanup(func() { s.Close() })
		fn(t, s)
	})
}

func rec(id, status string, submitted time.Time) Record {
	return Record{
		ID:          id,
		Status:      status,
		SubmittedAt: submitted,
		Request:     json.RawMessage(`{"function":"morris","n":10}`),
	}
}

func TestPutListDelete(t *testing.T) {
	implementations(t, func(t *testing.T, s Store) {
		t0 := time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC)
		if err := s.PutJob(rec("job-2", "pending", t0.Add(time.Second))); err != nil {
			t.Fatalf("put: %v", err)
		}
		if err := s.PutJob(rec("job-1", "pending", t0)); err != nil {
			t.Fatalf("put: %v", err)
		}
		recs, err := s.List()
		if err != nil {
			t.Fatalf("list: %v", err)
		}
		if len(recs) != 2 || recs[0].ID != "job-1" || recs[1].ID != "job-2" {
			t.Fatalf("list order = %+v, want job-1 then job-2 by SubmittedAt", recs)
		}
		if string(recs[0].Request) != `{"function":"morris","n":10}` {
			t.Fatalf("request payload lost: %s", recs[0].Request)
		}

		// Upsert replaces the whole record.
		upd := rec("job-1", "running", t0)
		upd.StartedAt = t0.Add(time.Minute)
		if err := s.PutJob(upd); err != nil {
			t.Fatalf("upsert: %v", err)
		}
		recs, _ = s.List()
		if recs[0].Status != "running" || recs[0].StartedAt.IsZero() {
			t.Fatalf("upsert did not replace record: %+v", recs[0])
		}

		if err := s.Delete("job-1"); err != nil {
			t.Fatalf("delete: %v", err)
		}
		if err := s.Delete("no-such-job"); err != nil {
			t.Fatalf("delete unknown: %v", err)
		}
		// A record without an id is refused, not acknowledged.
		if err := s.PutJob(rec("", "pending", t0)); err == nil {
			t.Fatalf("put of a record without an id succeeded")
		}
		recs, _ = s.List()
		if len(recs) != 1 || recs[0].ID != "job-2" {
			t.Fatalf("after delete: %+v", recs)
		}
	})
}

func TestResults(t *testing.T) {
	implementations(t, func(t *testing.T, s Store) {
		if _, ok, err := s.GetResult("job-1"); ok || err != nil {
			t.Fatalf("result of unknown job: ok=%v err=%v", ok, err)
		}
		payload := json.RawMessage(`{"best":{"rule":"a1 <= 0.4"}}`)
		if err := s.PutResult("job-1", payload); err != nil {
			t.Fatalf("put result: %v", err)
		}
		got, ok, err := s.GetResult("job-1")
		if err != nil || !ok || string(got) != string(payload) {
			t.Fatalf("get result = %s ok=%v err=%v", got, ok, err)
		}
		if err := s.Delete("job-1"); err != nil {
			t.Fatalf("delete: %v", err)
		}
		if _, ok, _ := s.GetResult("job-1"); ok {
			t.Fatalf("result survived delete")
		}
	})
}

func TestSweep(t *testing.T) {
	implementations(t, func(t *testing.T, s Store) {
		t0 := time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC)
		old := rec("job-old", "done", t0)
		old.FinishedAt = t0.Add(time.Minute)
		fresh := rec("job-fresh", "done", t0)
		fresh.FinishedAt = t0.Add(time.Hour)
		pending := rec("job-pending", "pending", t0) // no FinishedAt: never swept
		for _, r := range []Record{old, fresh, pending} {
			if err := s.PutJob(r); err != nil {
				t.Fatalf("put: %v", err)
			}
		}
		if err := s.PutResult("job-old", json.RawMessage(`{}`)); err != nil {
			t.Fatalf("put result: %v", err)
		}

		swept, err := s.Sweep(t0.Add(30 * time.Minute))
		if err != nil {
			t.Fatalf("sweep: %v", err)
		}
		if len(swept) != 1 || swept[0] != "job-old" {
			t.Fatalf("swept = %v, want [job-old]", swept)
		}
		if _, ok, _ := s.GetResult("job-old"); ok {
			t.Fatalf("swept job kept its result")
		}
		recs, _ := s.List()
		if len(recs) != 2 {
			t.Fatalf("after sweep: %+v", recs)
		}
		// Nothing else is old enough.
		if swept, _ := s.Sweep(t0.Add(30 * time.Minute)); len(swept) != 0 {
			t.Fatalf("second sweep removed %v", swept)
		}
	})
}

func TestNilRequestUpsertPreservesStored(t *testing.T) {
	implementations(t, func(t *testing.T, s Store) {
		t0 := time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC)
		if err := s.PutJob(rec("job-1", "pending", t0)); err != nil {
			t.Fatalf("put: %v", err)
		}
		upd := Record{ID: "job-1", Status: "running", SubmittedAt: t0, StartedAt: t0.Add(time.Second)}
		if err := s.PutJob(upd); err != nil { // nil Request: transition upsert
			t.Fatalf("transition upsert: %v", err)
		}
		recs, _ := s.List()
		if recs[0].Status != "running" {
			t.Fatalf("transition not applied: %+v", recs[0])
		}
		if string(recs[0].Request) != `{"function":"morris","n":10}` {
			t.Fatalf("nil-request upsert dropped the stored request: %q", recs[0].Request)
		}
	})
}

func TestMetaRoundtrip(t *testing.T) {
	implementations(t, func(t *testing.T, s Store) {
		if _, ok, err := s.GetMeta("k"); ok || err != nil {
			t.Fatalf("absent meta: ok=%v err=%v", ok, err)
		}
		if err := s.PutMeta("k", json.RawMessage(`{"n":1}`)); err != nil {
			t.Fatalf("put meta: %v", err)
		}
		v, ok, err := s.GetMeta("k")
		if err != nil || !ok || string(v) != `{"n":1}` {
			t.Fatalf("get meta = %s ok=%v err=%v", v, ok, err)
		}
		// Meta lives outside the job namespace.
		if recs, _ := s.List(); len(recs) != 0 {
			t.Fatalf("meta visible in List: %+v", recs)
		}
		if swept, _ := s.Sweep(time.Now().Add(time.Hour)); len(swept) != 0 {
			t.Fatalf("sweep touched meta: %v", swept)
		}
		if _, ok, _ := s.GetMeta("k"); !ok {
			t.Fatalf("meta lost after sweep")
		}
	})
}

func TestRecordTerminal(t *testing.T) {
	r := Record{Status: "running"}
	if r.Terminal() {
		t.Fatalf("zero FinishedAt reported terminal")
	}
	r.FinishedAt = time.Now()
	if !r.Terminal() {
		t.Fatalf("finished record not terminal")
	}
}

func TestConcurrentAccess(t *testing.T) {
	implementations(t, func(t *testing.T, s Store) {
		done := make(chan struct{})
		t0 := time.Now()
		for g := 0; g < 4; g++ {
			go func(g int) {
				defer func() { done <- struct{}{} }()
				for i := 0; i < 25; i++ {
					id := rune('a' + g)
					r := rec("job-"+string(id), "done", t0)
					r.FinishedAt = t0
					_ = s.PutJob(r)
					_ = s.PutResult(r.ID, json.RawMessage(`{"i":1}`))
					_, _ = s.List()
					_, _, _ = s.GetResult(r.ID)
					_, _ = s.Sweep(t0.Add(-time.Hour))
				}
			}(g)
		}
		for g := 0; g < 4; g++ {
			<-done
		}
	})
}
