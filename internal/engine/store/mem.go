package store

// Mem is the in-process Store: the shared state with no log, so no
// files. An engine over a Mem store behaves exactly like the pre-store
// engine — state dies with the process. FS is tested against it: an FS
// reopened from its files must hold what a Mem given the same calls
// holds.
type Mem struct{ state }

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	m := &Mem{}
	m.init(nil)
	return m
}

// Close implements Store; it is a no-op for Mem.
func (m *Mem) Close() error { return nil }
