package backend

import (
	"fmt"

	"dana/internal/cost"
	"dana/internal/engine"
	"dana/internal/storage"
	"dana/internal/weaving"
)

// Weave is the MLWeaving any-precision data path behind the Backend
// seam: tuples are routed through the vertical bit-plane layout
// (internal/storage's WeavePage) and decoded at k bits per feature by
// the internal/weaving extraction engine before feeding the same
// execution-engine simulator the accelerator path runs. Reading fewer
// planes streams proportionally fewer bytes over the link — the
// precision-for-bandwidth tradeoff the cost model charges through
// Workload.WeaveBits — at the price of quantized features.
//
// Reference semantics: the golden float64 trainer over the *rewoven*
// tuples (weaving.ReweaveRows is shared between RunEpoch and
// WeaveReference), so the declared ModelTolerance covers only the
// float32-datapath divergence, at every precision — quantization error
// lives in the reference, not the tolerance.
type Weave struct {
	inner *Accel

	configured bool
	bits       int
	pageRows   int
	ranges     []storage.WeaveRange

	// rows is the scratch the batch/float64 stream forms materialize
	// into before reweaving.
	rows [][]float32
}

// NewWeave builds an unconfigured any-precision backend.
func NewWeave(env Env) *Weave { return &Weave{inner: NewAccel(env)} }

func (b *Weave) Capabilities() Capabilities {
	return Capabilities{
		Name: NameWeave,
		// LRMF is excluded: the rating schema's integer row/column ids
		// are indices, not magnitudes — quantizing them is meaningless,
		// and storage.CheckWeaveSchema rejects the layout anyway.
		Classes:               []Class{ClassLinear, ClassLogistic, ClassSVM},
		Precision:             PrecisionFloat32,
		DeterministicCounters: true,
		ModelTolerance:        5e-3, // float32 datapath vs float64 golden on rewoven tuples
		MinBits:               1,
		MaxBits:               storage.WeaveMaxBits,
		Streaming:             true,
		Accelerated:           true,
	}
}

// jobBits resolves a job's effective read precision (0 = full width).
func jobBits(bits int) int {
	if bits == 0 {
		return storage.WeaveMaxBits
	}
	return bits
}

// weaveGeometry returns the job's feature count and weave-page geometry.
func weaveGeometry(job Job) (int, weaving.Geometry) {
	nfeat := max(job.Columns-1, 1)
	pageSize := job.PageSize
	if pageSize <= 0 {
		pageSize = storage.PageSize8K
	}
	return nfeat, weaving.RelationGeometry(job.Tuples, nfeat, pageSize)
}

// EstimateCost prices the job like the accelerator path, with the link
// charged for the rewoven byte stream: FixedBytes + k×BitBytes from the
// exact page geometry, and the Strider unpack cycles replaced by the
// k-bit plane-gather model.
func (b *Weave) EstimateCost(job Job) (Cost, error) {
	return b.inner.estimate(job, b.Capabilities(), func(w *cost.Workload) {
		nfeat, g := weaveGeometry(job)
		w.WeaveBits, w.WeaveFixedBytes, w.WeaveBitBytes, w.Pages = jobBits(job.Bits), g.FixedBytes, g.BitBytes, g.Pages
		w.StriderPageCycles = weaving.PageDecodeCycles(nfeat, g.PageRows, w.WeaveBits)
	})
}

// PriceRun prices the run like the accelerator, with the link charged
// FixedBytes + k×BitBytes of the weave geometry per extraction pass; the
// pass count comes from the run's page stream, cached replays included.
func (b *Weave) PriceRun(job Job, run Run) (float64, error) {
	_, g := weaveGeometry(job)
	heapPages := int64(max1(job.Pages))
	passes := (run.Access.Pages + heapPages - 1) / heapPages
	return b.inner.priceRun(job, run, b.Capabilities(), cost.Workload{
		DatasetBytes:    run.Access.Pages * int64(job.PageSize),
		Pages:           int(passes) * g.Pages,
		WeaveBits:       jobBits(job.Bits),
		WeaveFixedBytes: passes * g.FixedBytes,
		WeaveBitBytes:   passes * g.BitBytes,
	})
}

// Configure prepares the inner engine machine under the weave
// capability set and pins the read precision and (optionally) the
// quantization ranges for the job.
func (b *Weave) Configure(p Program) error {
	bits := jobBits(p.Bits)
	if bits < 1 || bits > storage.WeaveMaxBits {
		return fmt.Errorf("%w: weave precision %d outside [1,%d]", ErrUnsupported, p.Bits, storage.WeaveMaxBits)
	}
	if err := b.inner.configure(p, p.EngineCfg, b.Capabilities()); err != nil {
		return err
	}
	b.bits = bits
	b.ranges = append([]storage.WeaveRange(nil), p.Ranges...)
	if len(b.ranges) == 0 {
		b.ranges = nil // derive from the first epoch
	}
	nfeat := 1
	if p.Graph != nil && p.Graph.Model != nil {
		nfeat = p.Graph.Model.Shape.Size()
	}
	b.pageRows = storage.WeavePageRows(max1(p.PageSize), nfeat)
	b.configured = true
	return nil
}

// RunEpoch materializes the epoch's tuples from whichever stream form
// arrived, reweaves them at the configured precision, and replays the
// rewoven rows through the engine. Ranges are derived from the first
// epoch when the program didn't pin them; per-column min/max is
// delivery-order independent, so every legal stream form of the same
// epoch produces bit-identical rewoven rows — and therefore
// bit-identical model state and modeled counters.
func (b *Weave) RunEpoch(st *Stream) error {
	if !b.configured {
		return ErrNotConfigured
	}
	var rows [][]float32
	switch {
	case st != nil && st.Batches != nil:
		b.rows = b.rows[:0]
		if err := st.Batches(func(batch [][]float32) error {
			for _, r := range batch {
				b.rows = append(b.rows, append([]float32(nil), r...))
			}
			return nil
		}); err != nil {
			return err
		}
		rows = b.rows
	case st != nil && st.Rows32 != nil:
		rows = st.Rows32
	case st != nil && st.Rows64 != nil:
		if len(b.rows) < len(st.Rows64) {
			b.rows = make([][]float32, len(st.Rows64))
		}
		b.rows = b.rows[:len(st.Rows64)]
		for i, row := range st.Rows64 {
			if len(b.rows[i]) != len(row) {
				b.rows[i] = make([]float32, len(row))
			}
			for j, v := range row {
				b.rows[i][j] = float32(v)
			}
		}
		rows = b.rows
	default:
		// No tuples delivered: replay the engine's cached (rewoven) epoch.
		return b.inner.RunEpoch(st)
	}
	rewoven, ranges, err := weaving.ReweaveRows(rows, b.ranges, b.bits, b.pageRows)
	if err != nil {
		return err
	}
	b.ranges = ranges
	return b.inner.RunEpoch(&Stream{Rows32: rewoven})
}

// Bits returns the configured read precision (0 before Configure).
func (b *Weave) Bits() int {
	if !b.configured {
		return 0
	}
	return b.bits
}

// Ranges returns the quantization ranges in effect (nil until pinned by
// Configure or derived from the first epoch).
func (b *Weave) Ranges() []storage.WeaveRange {
	return append([]storage.WeaveRange(nil), b.ranges...)
}

// Score runs inference in the float32 datapath width (scoring reads the
// caller's rows directly; only training tuples are quantized).
func (b *Weave) Score(model []float64, rows [][]float64) ([]float64, error) {
	if !b.configured {
		return nil, ErrNotConfigured
	}
	return b.inner.Score(model, rows)
}

func (b *Weave) Model() []float64 {
	if !b.configured {
		return nil
	}
	return b.inner.Model()
}

func (b *Weave) SetModel(m []float64) error {
	if !b.configured {
		return ErrNotConfigured
	}
	return b.inner.SetModel(m)
}

func (b *Weave) Converged() (bool, error) {
	if !b.configured {
		return false, ErrNotConfigured
	}
	return b.inner.Converged()
}

// Counters returns the engine's modeled cycle decomposition.
func (b *Weave) Counters() engine.Stats { return b.inner.Counters() }

// Close releases the inner machine's host fan-out helpers.
func (b *Weave) Close() { b.inner.Close() }

// WeaveReference is the weave registration's declared reference
// semantics: the golden float64 trainer over the scenario's tuples
// rewoven at the scenario's precision — the same ReweaveRows call
// RunEpoch makes, so backend and reference see identical feature
// values and only datapath width separates them.
func WeaveReference(env Env, sc Scenario) ([]float64, error) {
	rewoven, _, err := weaving.ReweaveRows(sc.Rows32, nil, jobBits(sc.Bits), 0)
	if err != nil {
		return nil, err
	}
	tuples := make([][]float64, len(rewoven))
	for i, r := range rewoven {
		tuples[i] = widen64(r)
	}
	model := append([]float64(nil), sc.Init...)
	if err := sc.Spec.Train(model, tuples); err != nil {
		return nil, err
	}
	return model, nil
}
