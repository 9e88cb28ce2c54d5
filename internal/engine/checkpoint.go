package engine

import (
	"encoding"
	"encoding/json"
	"io"
	"maps"
	"sync"
	"time"

	"github.com/reds-go/reds/internal/gbt"
	"github.com/reds-go/reds/internal/metamodel"
	"github.com/reds-go/reds/internal/rf"
	"github.com/reds-go/reds/internal/svm"
)

// Checkpoint is a resumable snapshot of a partially executed request.
// The executor publishes one after every completed unit of reusable
// work (a family's training, a finished variant), except the
// execution's last variant: its result supersedes any snapshot at once.
// The engine's checkpoint writer persists the newest snapshot through
// the store, off the progress callback, and on failover the dispatcher
// forwards it to the next candidate worker, which re-runs only what
// the checkpoint cannot prove finished.
//
// A checkpoint is self-validating: DatasetHash pins it to the training
// data, and the model-cache keys pin each model to the exact
// family/tuning/seed/mode it was trained under, so a worker never
// resumes from a snapshot computed under different inputs.
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
	// Models maps metamodel family → its trained model, recorded when
	// the family's train stage closes. A re-run variant whose model key
	// matches decodes the model instead of training it, then samples,
	// labels and discovers as a fresh run does: its pseudo-labeled set
	// is a pure function of the model, the sampler and the label seed,
	// so relabeling reproduces it bit for bit.
	Models map[string]ModelArtifact `json:"models,omitempty"`
	// ElapsedSeconds accumulates the wall-clock time every execution of
	// the job has spent so far. A resumed execution subtracts it from
	// the request's deadline budget, so a job deadline bounds the job —
	// not each failover attempt separately.
	ElapsedSeconds float64 `json:"elapsed_seconds,omitempty"`
}

// decodeCheckpoint decodes a checkpoint in this build's layout only: a
// field it does not know means another build wrote the checkpoint, and
// its models or variants may mean something else. Callers ignore a
// checkpoint that fails to decode, and the job runs cold.
func decodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var cp Checkpoint
	if err := dec.Decode(&cp); err != nil {
		return nil, err
	}
	return &cp, nil
}

// ModelArtifact is one metamodel family's trained model in a checkpoint.
type ModelArtifact struct {
	// Key is the model-cache key the model was trained under. A resuming
	// worker decodes the model only under the key it computes itself.
	Key string `json:"key"`
	// Data is the model's MarshalBinary encoding (a base64 string in
	// JSON): rf's flattree table; gbt's base score, shrinkage and table;
	// svm's width, support vectors, coefficients, bias and gamma. It is
	// absent when the encoding is over checkpointModelBytes, and the
	// family then retrains on resume.
	Data []byte `json:"data,omitempty"`
}

// checkpointModelBytes caps one model's encoding in a checkpoint. Three
// families at the cap take a quarter of maxExecBodyBytes in base64, so
// a failover request always fits beside its inline dataset and
// variants; the default rf at N=400 encodes to about 0.1 MB.
const checkpointModelBytes = maxExecBodyBytes / 16

// decodeModel decodes a model of the family that MarshalBinary wrote
// for points of the given width. Each family's decoder validates the
// payload, so any bytes decode to an error or to a model that labels
// points of that width.
func decodeModel(family string, data []byte, width int) (metamodel.Model, error) {
	switch family {
	case "xgb":
		return asModel(gbt.UnmarshalModel(data, width))
	case "svm":
		return asModel(svm.UnmarshalModel(data, width))
	default: // "rf"
		return asModel(rf.UnmarshalForest(data, width))
	}
}

// asModel returns a decoder's result as a Model, nil on error rather
// than a typed nil pointer.
func asModel[M metamodel.Model](m M, err error) (metamodel.Model, error) {
	if err != nil {
		return nil, err
	}
	return m, nil
}

// checkpointRecorder accumulates one execution's reusable work and
// publishes immutable Checkpoint snapshots through the progress sink:
// one when a family's train stage first closes, carrying its model, and
// one per finished variant. It is seeded from the inbound checkpoint
// (if any), so snapshots survive chained failovers: work finished two
// executions ago is still in the checkpoint the third execution
// publishes.
type checkpointRecorder struct {
	mu          sync.Mutex
	sink        *progressSink
	seq         uint64
	datasetHash string
	variants    []VariantResult
	// models maps family → its recorded model, the inbound checkpoint's
	// carried forward unchanged.
	models map[string]ModelArtifact
	// start anchors this execution's contribution to ElapsedSeconds;
	// baseElapsed carries what earlier executions already spent.
	start       time.Time
	baseElapsed float64
}

// newCheckpointRecorder seeds a recorder for one execution. cp is the
// inbound checkpoint (nil for a fresh run) — its hash must already be
// validated by the caller.
func newCheckpointRecorder(cp *Checkpoint, datasetHash string, sink *progressSink) *checkpointRecorder {
	r := &checkpointRecorder{
		sink:        sink,
		datasetHash: datasetHash,
		models:      make(map[string]ModelArtifact),
		start:       time.Now(),
	}
	if cp == nil {
		return r
	}
	r.seq = cp.Seq
	r.baseElapsed = cp.ElapsedSeconds
	r.variants = append(r.variants, cp.Variants...)
	maps.Copy(r.models, cp.Models)
	return r
}

// resumeModel returns the recorded encoding of the family's model when
// it was trained under key, else nil.
func (r *checkpointRecorder) resumeModel(family, key string) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	if art := r.models[family]; art.Key == key {
		return art.Data
	}
	return nil
}

// trainStageDone records the family's model trained under key and
// publishes a new snapshot, once per family: the model is encoded under
// the recorder's lock, so a sibling variant finds it recorded and
// publishes nothing, and no snapshot names the family without its
// model. A model over checkpointModelBytes, or one that cannot encode
// itself, keeps only its key.
func (r *checkpointRecorder) trainStageDone(family, key string, m metamodel.Model) {
	r.mu.Lock()
	if r.models[family].Key == key {
		r.mu.Unlock()
		return
	}
	art := ModelArtifact{Key: key}
	if bm, ok := m.(encoding.BinaryMarshaler); ok {
		if data, err := bm.MarshalBinary(); err == nil && len(data) <= checkpointModelBytes {
			art.Data = data
		}
	}
	r.models[family] = art
	cp := r.snapshotLocked()
	r.mu.Unlock()
	r.sink.setCheckpoint(cp)
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
// models are shared, never copied: nothing mutates them. Caller holds
// r.mu.
func (r *checkpointRecorder) snapshotLocked() *Checkpoint {
	r.seq++
	return &Checkpoint{
		Seq:            r.seq,
		DatasetHash:    r.datasetHash,
		Variants:       append([]VariantResult(nil), r.variants...),
		Models:         maps.Clone(r.models),
		ElapsedSeconds: r.baseElapsed + time.Since(r.start).Seconds(),
	}
}
