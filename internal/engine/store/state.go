package store

import (
	"encoding/json"
	"errors"
	"sort"
	"sync"
	"time"
)

// Entry ops: every store mutation is one or more of these.
const (
	opJob        = "job"
	opResult     = "result"
	opDelete     = "delete"
	opMeta       = "meta"
	opCheckpoint = "checkpoint"
)

// walEntry is one store mutation: what state.apply folds, and one JSON
// line of FS's log or snapshot.
type walEntry struct {
	Op     string          `json:"op"`
	Job    *Record         `json:"job,omitempty"`
	ID     string          `json:"id,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// state is the job-store state Mem and FS share: four maps behind one
// mutex, and the Store methods over them. Each mutating method turns
// its call into entries and commits them; apply is the one place that
// folds an entry into the maps, for live calls and FS's replay alike.
type state struct {
	mu sync.Mutex
	// log makes entries durable before they are applied; an error
	// leaves the maps untouched. FS sets it to its write-ahead log
	// append, Mem leaves it nil. Called with mu held.
	log         func([]walEntry) error
	jobs        map[string]Record
	results     map[string]json.RawMessage
	metas       map[string]json.RawMessage
	checkpoints map[string]json.RawMessage
}

func (s *state) init(log func([]walEntry) error) {
	s.log = log
	s.jobs = make(map[string]Record)
	s.results = make(map[string]json.RawMessage)
	s.metas = make(map[string]json.RawMessage)
	s.checkpoints = make(map[string]json.RawMessage)
}

// apply folds one entry into the maps and reports whether it was
// well-formed. Entries are full-state upserts or deletes, so replaying
// a snapshot and then a log that overlaps it reaches the same state in
// any crash interleaving. Caller holds mu.
func (s *state) apply(e walEntry) bool {
	switch e.Op {
	case opJob:
		// PutJob refuses a record without an id, so such an entry is
		// corrupt rather than an unaddressable record.
		if e.Job == nil || e.Job.ID == "" {
			return false
		}
		rec := *e.Job
		if rec.Request == nil {
			rec.Request = s.jobs[rec.ID].Request
		}
		s.jobs[rec.ID] = rec
	case opResult:
		s.results[e.ID] = e.Result
	case opDelete:
		delete(s.jobs, e.ID)
		delete(s.results, e.ID)
		delete(s.checkpoints, e.ID)
	case opMeta:
		s.metas[e.ID] = e.Result
	case opCheckpoint:
		if len(e.Result) == 0 {
			delete(s.checkpoints, e.ID)
		} else {
			s.checkpoints[e.ID] = e.Result
		}
	default:
		return false
	}
	return true
}

// commit logs entries, if the store has a log, then applies them.
// Caller holds mu.
func (s *state) commit(entries ...walEntry) error {
	if s.log != nil {
		if err := s.log(entries); err != nil {
			return err
		}
	}
	for _, e := range entries {
		s.apply(e)
	}
	return nil
}

// PutJob implements Store. A nil rec.Request is committed as-is (a
// transition entry stays a few hundred bytes even for jobs with inline
// datasets); apply merges the stored request back in.
func (s *state) PutJob(rec Record) error {
	if rec.ID == "" {
		return errors.New("store: job record without an id")
	}
	rec.Request = clone(rec.Request)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commit(walEntry{Op: opJob, Job: &rec})
}

// PutResult implements Store.
func (s *state) PutResult(id string, result json.RawMessage) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commit(walEntry{Op: opResult, ID: id, Result: clone(result)})
}

// GetResult implements Store.
func (s *state) GetResult(id string) (json.RawMessage, bool, error) {
	return s.get(s.results, id)
}

// List implements Store.
func (s *state) List() ([]Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sortedRecords(s.jobs), nil
}

// Delete implements Store. An unknown id commits nothing.
func (s *state) Delete(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, okJ := s.jobs[id]
	_, okR := s.results[id]
	_, okC := s.checkpoints[id]
	if !okJ && !okR && !okC {
		return nil
	}
	return s.commit(walEntry{Op: opDelete, ID: id})
}

// Sweep implements Store. Every expired record is deleted in one
// commit (one log append, one fsync).
func (s *state) Sweep(cutoff time.Time) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var expired []string
	for id, rec := range s.jobs {
		if rec.Terminal() && rec.FinishedAt.Before(cutoff) {
			expired = append(expired, id)
		}
	}
	if len(expired) == 0 {
		return nil, nil
	}
	sort.Strings(expired)
	entries := make([]walEntry, len(expired))
	for i, id := range expired {
		entries[i] = walEntry{Op: opDelete, ID: id}
	}
	if err := s.commit(entries...); err != nil {
		return nil, err
	}
	return expired, nil
}

// PutMeta implements Store.
func (s *state) PutMeta(key string, value json.RawMessage) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commit(walEntry{Op: opMeta, ID: key, Result: clone(value)})
}

// GetMeta implements Store.
func (s *state) GetMeta(key string) (json.RawMessage, bool, error) {
	return s.get(s.metas, key)
}

// PutCheckpoint implements Store. An empty payload commits a deletion,
// or nothing when no checkpoint is stored.
func (s *state) PutCheckpoint(id string, cp json.RawMessage) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.checkpoints[id]; !ok && len(cp) == 0 {
		return nil
	}
	return s.commit(walEntry{Op: opCheckpoint, ID: id, Result: clone(cp)})
}

// GetCheckpoint implements Store.
func (s *state) GetCheckpoint(id string) (json.RawMessage, bool, error) {
	return s.get(s.checkpoints, id)
}

// get returns a copy of m[key]; m is one of the state's payload maps.
func (s *state) get(m map[string]json.RawMessage, key string) (json.RawMessage, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := m[key]
	return clone(v), ok, nil
}

// clone copies a payload so the store never shares bytes with a caller.
// An empty payload becomes nil, as the log's omitempty encoding makes
// it on replay.
func clone(b json.RawMessage) json.RawMessage {
	return append(json.RawMessage(nil), b...)
}

// sortedRecords copies a record map into a slice ordered by SubmittedAt,
// ties broken by ID, so List and the snapshot are deterministic.
func sortedRecords(jobs map[string]Record) []Record {
	out := make([]Record, 0, len(jobs))
	for _, rec := range jobs {
		rec.Request = clone(rec.Request)
		out = append(out, rec)
	}
	sort.Slice(out, func(a, b int) bool {
		if !out[a].SubmittedAt.Equal(out[b].SubmittedAt) {
			return out[a].SubmittedAt.Before(out[b].SubmittedAt)
		}
		return out[a].ID < out[b].ID
	})
	return out
}
