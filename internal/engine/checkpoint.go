package engine

import (
	"encoding/json"
	"io"
	"maps"
	"sync"
	"time"

	"github.com/reds-go/reds/internal/dataset"
)

// Checkpoint is a resumable snapshot of a partially executed request.
// The executor publishes one after every completed unit of reusable
// work (a family's pseudo-labeling, a finished variant); the engine
// persists the latest snapshot through the store, and on failover the
// dispatcher forwards it to the next candidate worker, which re-runs
// only what the checkpoint cannot prove finished.
//
// A checkpoint is self-validating: DatasetHash pins it to the training
// data, and the label-cache keys pin the labeled datasets to the exact
// model/sampler/seed tuple, so a worker never resumes from a snapshot
// computed under different inputs.
type Checkpoint struct {
	// Seq orders snapshots of one job. It increases monotonically across
	// executions — a resumed execution continues counting from the
	// inbound checkpoint's Seq — so consumers can keep the newest
	// snapshot by comparing Seq alone.
	Seq uint64 `json:"seq"`
	// DatasetHash is the content hash of the training data the snapshot
	// was computed from. A worker ignores a checkpoint whose hash does
	// not match its own resolved training data.
	DatasetHash string `json:"dataset_hash"`
	// Variants holds the finished variant results; a resuming worker
	// reuses them verbatim and re-runs only the missing combinations.
	Variants []VariantResult `json:"variants,omitempty"`
	// Timings are the pipeline spans closed before the snapshot was
	// taken. A resuming worker preloads them into its own trace, so the
	// job's final timings are the union of every execution's spans with
	// no duplicates for skipped work.
	Timings []StageTiming `json:"timings,omitempty"`
	// Labeled maps metamodel family → its label artifact. An artifact
	// inlines the pseudo-labeled dataset while the checkpointBytes budget
	// lasts: that is what lets a cold replacement worker skip the
	// train/sample/label stages entirely, since the discover stage needs
	// only Dnew and the real validation data, not the trained model. A
	// family whose dataset did not fit keeps its key and report, and a
	// resuming worker recomputes it.
	Labeled map[string]LabeledSet `json:"labeled,omitempty"`
	// ElapsedSeconds accumulates the wall-clock time every execution of
	// the job has spent so far. A resumed execution subtracts it from
	// the request's deadline budget, so a job deadline bounds the job —
	// not each failover attempt separately.
	ElapsedSeconds float64 `json:"elapsed_seconds,omitempty"`
}

// decodeCheckpoint decodes a checkpoint in this build's layout only: a
// field it does not know means another build wrote the checkpoint, and
// its labeled sets or variants may mean something else. Callers ignore
// a checkpoint that fails to decode, and the job runs cold.
func decodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var cp Checkpoint
	if err := dec.Decode(&cp); err != nil {
		return nil, err
	}
	return &cp, nil
}

// LabeledSet is one metamodel family's label artifact in a checkpoint.
type LabeledSet struct {
	// Key is the label-cache key the dataset was computed under. A
	// resuming worker adopts the dataset only under the key it computes
	// itself, so a set computed under other inputs is never found.
	Key string `json:"key"`
	// Data is the pseudo-labeled dataset in dataset.MarshalBinary's
	// layout (a base64 string in JSON), absent when it did not fit the
	// budget. It is encoded once, when the label stage finishes; every
	// later snapshot, fetch, persist and forward moves the same bytes,
	// and only a worker that resumes from it decodes it.
	Data []byte `json:"data,omitempty"`
	// KernelReport is how the dataset was labeled. A variant that
	// resumes from the dataset reports it as its own.
	KernelReport
}

// checkpointBytes bounds the total encoded size of the labeled
// datasets inlined into one execution's checkpoints. Within it a cold
// replacement worker resumes without retraining or relabeling; beyond
// it, checkpoints carry only the keys and reports. An L = 10^5 set with
// 8 inputs encodes to 7.2 MB, so four such families fit.
const checkpointBytes = 32 << 20

// checkpointRecorder accumulates one execution's reusable work and
// publishes immutable Checkpoint snapshots through the progress sink.
// It is seeded from the inbound checkpoint (if any), so snapshots
// survive chained failovers: work finished two executions ago is still
// in the checkpoint the third execution publishes.
type checkpointRecorder struct {
	mu          sync.Mutex
	sink        *progressSink
	seq         uint64
	datasetHash string
	// budgetLeft bounds the total encoded bytes of inline labeled sets.
	budgetLeft int64
	variants   []VariantResult
	// labeled maps family → its recorded label artifact.
	labeled map[string]LabeledSet
	// labeling holds one Once per family whose label stage this
	// execution records; see labelStageDone.
	labeling map[string]*sync.Once
	// inbound maps label-cache key → labeled set from the checkpoint this
	// execution resumed from. Keying by the full cache key (rather than
	// family) makes the lookup self-validating: if this worker computes
	// a different key — different seed, sampler, L, rule budget — the
	// stale dataset is simply not found and the stage recomputes.
	// Read-only after construction.
	inbound map[string]*inboundLabeled
	// start anchors this execution's contribution to ElapsedSeconds;
	// baseElapsed carries what earlier executions already spent.
	start       time.Time
	baseElapsed float64
}

// inboundLabeled is one labeled set of the inbound checkpoint, decoded
// on first use: only a variant that resumes from it pays for the
// decode, and its sibling variants share the result.
type inboundLabeled struct {
	set  LabeledSet
	once sync.Once
	d    *dataset.Dataset // nil when the data does not decode
}

func (in *inboundLabeled) decoded() *dataset.Dataset {
	in.once.Do(func() {
		d := new(dataset.Dataset)
		if d.UnmarshalBinary(in.set.Data) == nil {
			in.d = d
		}
	})
	return in.d
}

// newCheckpointRecorder seeds a recorder for one execution. cp is the
// inbound checkpoint (nil for a fresh run) — its hash must already be
// validated by the caller.
func newCheckpointRecorder(cp *Checkpoint, datasetHash string, sink *progressSink) *checkpointRecorder {
	r := &checkpointRecorder{
		sink:        sink,
		datasetHash: datasetHash,
		budgetLeft:  checkpointBytes,
		labeled:     make(map[string]LabeledSet),
		labeling:    make(map[string]*sync.Once),
		inbound:     make(map[string]*inboundLabeled),
		start:       time.Now(),
	}
	if cp == nil {
		return r
	}
	r.seq = cp.Seq
	r.baseElapsed = cp.ElapsedSeconds
	r.variants = append(r.variants, cp.Variants...)
	for fam, set := range cp.Labeled {
		// Carry every set forward unchanged so the next failover can
		// still resume cold; its data already fit the previous budget.
		r.labeled[fam] = set
		if set.Data != nil {
			r.inbound[set.Key] = &inboundLabeled{set: set}
			r.budgetLeft -= int64(len(set.Data))
		}
	}
	return r
}

// resumeLabeled returns the inbound checkpoint's labeled dataset for
// the given label-cache key with its kernel report, or a nil dataset
// when the checkpoint has none, was computed under different inputs,
// or carries data that does not decode.
func (r *checkpointRecorder) resumeLabeled(labelKey string) (*dataset.Dataset, KernelReport) {
	in := r.inbound[labelKey]
	if in == nil {
		return nil, KernelReport{}
	}
	return in.decoded(), in.set.KernelReport
}

// labelStageDone records that a family's pseudo-labeling finished (its
// key and report always; the encoded dataset while the byte budget
// lasts) and publishes a new snapshot. Idempotent per family.
// Concurrent variants of one family record once: the first encodes the
// dataset outside the recorder's lock, and its siblings wait until the
// snapshot carrying it is published, so none of them publishes one that
// names the family without its dataset.
func (r *checkpointRecorder) labelStageDone(family string, set LabeledSet, d *dataset.Dataset) {
	r.mu.Lock()
	if _, ok := r.labeled[family]; ok {
		r.mu.Unlock()
		return
	}
	once := r.labeling[family]
	if once == nil {
		once = new(sync.Once)
		r.labeling[family] = once
	}
	fits := d != nil && int64(d.BinarySize()) <= r.budgetLeft
	r.mu.Unlock()

	once.Do(func() {
		if fits {
			set.Data, _ = d.MarshalBinary() // a malformed dataset just stays out of the checkpoint
		}
		r.mu.Lock()
		// Another family may have taken the budget while this one encoded.
		if int64(len(set.Data)) > r.budgetLeft {
			set.Data = nil
		}
		r.budgetLeft -= int64(len(set.Data))
		r.labeled[family] = set
		cp := r.snapshotLocked()
		r.mu.Unlock()
		r.sink.setCheckpoint(cp)
	})
}

// variantDone records a finished variant and publishes a new snapshot.
func (r *checkpointRecorder) variantDone(vr VariantResult) {
	r.mu.Lock()
	r.variants = append(r.variants, vr)
	cp := r.snapshotLocked()
	r.mu.Unlock()
	r.sink.setCheckpoint(cp)
}

// snapshotLocked builds an immutable Checkpoint from the current state.
// Timings are filled in by the sink at publish time, so the snapshot's
// trace exactly matches the progress it travels with. The encoded
// labeled sets are shared, never copied: nothing mutates them. Caller
// holds r.mu.
func (r *checkpointRecorder) snapshotLocked() *Checkpoint {
	r.seq++
	return &Checkpoint{
		Seq:            r.seq,
		DatasetHash:    r.datasetHash,
		Variants:       append([]VariantResult(nil), r.variants...),
		Labeled:        maps.Clone(r.labeled),
		ElapsedSeconds: r.baseElapsed + time.Since(r.start).Seconds(),
	}
}
