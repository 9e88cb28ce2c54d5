package engine

import (
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
// data, and the cache keys pin the labeled datasets to the exact
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
	// ModelKeys maps metamodel family → model-cache key: a warm resuming
	// worker hits its cache under the same key.
	ModelKeys map[string]string `json:"model_keys,omitempty"`
	// LabelKeys maps metamodel family → content-addressed label-dataset
	// cache key (see internal/engine/cache.go for the key scheme).
	LabelKeys map[string]string `json:"label_keys,omitempty"`
	// Labeled inlines the pseudo-labeled datasets themselves, per
	// family, in dataset.MarshalBinary's layout (base64 strings in JSON),
	// up to the checkpointBytes budget. This is what lets a cold
	// replacement worker skip the train/sample/label stages entirely: the
	// discover stage needs only Dnew and the real validation data, not the
	// trained model. Families whose dataset did not fit the budget keep
	// only their keys — a warm worker still hits its caches, a cold one
	// recomputes. Each set is encoded once, when its label stage
	// finishes; every later snapshot, fetch, persist and forward moves
	// the same bytes, and only a worker that resumes from a set decodes
	// it.
	Labeled map[string][]byte `json:"labeled,omitempty"`
	// ElapsedSeconds accumulates the wall-clock time every execution of
	// the job has spent so far. A resumed execution subtracts it from
	// the request's deadline budget, so a job deadline bounds the job —
	// not each failover attempt separately.
	ElapsedSeconds float64 `json:"elapsed_seconds,omitempty"`
}

// checkpointBytes bounds the total encoded size of the labeled
// datasets inlined into one execution's checkpoints. Within it a cold
// replacement worker resumes without retraining or relabeling; beyond
// it, checkpoints carry only the cache keys. An L = 10^5 set with 8
// inputs encodes to 7.2 MB, so four such families fit.
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
	modelKeys  map[string]string
	labelKeys  map[string]string
	// labeled maps family → its encoded labeled dataset.
	labeled map[string][]byte
	// labeling holds one Once per family whose label stage this
	// execution records; see labelStageDone.
	labeling map[string]*sync.Once
	// inbound maps label-cache key → labeled set from the checkpoint this
	// execution resumed from. Keying by the full cache key (rather than
	// family) makes the lookup self-validating: if this worker computes
	// a different key — different seed, sampler, L — the stale dataset
	// is simply not found and the stage recomputes. Read-only after
	// construction.
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
	blob []byte
	once sync.Once
	d    *dataset.Dataset // nil when the blob does not decode
}

func (in *inboundLabeled) decoded() *dataset.Dataset {
	in.once.Do(func() {
		d := new(dataset.Dataset)
		if d.UnmarshalBinary(in.blob) == nil {
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
		modelKeys:   make(map[string]string),
		labelKeys:   make(map[string]string),
		labeled:     make(map[string][]byte),
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
	maps.Copy(r.modelKeys, cp.ModelKeys)
	for fam, k := range cp.LabelKeys {
		r.labelKeys[fam] = k
		if blob := cp.Labeled[fam]; blob != nil {
			r.inbound[k] = &inboundLabeled{blob: blob}
			// Carry the blob forward unchanged so the next failover can
			// still resume cold; it already fit the previous budget.
			r.labeled[fam] = blob
			r.budgetLeft -= int64(len(blob))
		}
	}
	return r
}

// resumeLabeled returns the inbound checkpoint's labeled dataset for
// the given label-cache key, or nil when the checkpoint has none, was
// computed under different inputs, or carries a blob that does not
// decode.
func (r *checkpointRecorder) resumeLabeled(labelKey string) *dataset.Dataset {
	if in := r.inbound[labelKey]; in != nil {
		return in.decoded()
	}
	return nil
}

// labelStageDone records that a family's pseudo-labeling finished (keys
// always; the encoded dataset while the byte budget lasts) and
// publishes a new snapshot. Idempotent per family. Concurrent variants
// of one family record once: the first encodes the dataset outside the
// recorder's lock, and its siblings wait until the snapshot carrying it
// is published, so none of them publishes one that names the family
// without its dataset.
func (r *checkpointRecorder) labelStageDone(family, modelKey, labelKey string, d *dataset.Dataset) {
	r.mu.Lock()
	if _, ok := r.labelKeys[family]; ok {
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
		var blob []byte
		if fits {
			blob, _ = d.MarshalBinary() // a malformed dataset just stays out of the checkpoint
		}
		r.mu.Lock()
		r.modelKeys[family] = modelKey
		r.labelKeys[family] = labelKey
		// Another family may have taken the budget while this one encoded.
		if blob != nil && int64(len(blob)) <= r.budgetLeft {
			r.labeled[family] = blob
			r.budgetLeft -= int64(len(blob))
		}
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
	cp := &Checkpoint{
		Seq:            r.seq,
		DatasetHash:    r.datasetHash,
		Variants:       append([]VariantResult(nil), r.variants...),
		ModelKeys:      maps.Clone(r.modelKeys),
		LabelKeys:      maps.Clone(r.labelKeys),
		ElapsedSeconds: r.baseElapsed + time.Since(r.start).Seconds(),
	}
	if len(r.labeled) > 0 {
		cp.Labeled = maps.Clone(r.labeled)
	}
	return cp
}
