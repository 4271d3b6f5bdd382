package backend

import (
	"fmt"
	hostrt "runtime"

	"dana/internal/cost"
	"dana/internal/engine"
	"dana/internal/hdfg"
	"dana/internal/ml"
)

// Accel is the DAnA accelerator path behind the Backend seam: the
// multi-threaded execution-engine simulator fed by the Strider
// extraction pipeline. It is the streaming backend — RunEpoch accepts
// the page-order batch stream and preserves the exact feed order the
// bit-identity invariants depend on.
type Accel struct {
	env Env

	m      *engine.Machine
	stream *engine.EpochStream
	batch  int
	class  Class
	graph  *hdfg.Graph
	// feed is stream.Feed bound once at Configure, so the per-epoch
	// streaming path allocates no closures.
	feed func([][]float32) error
	// rows32 is the scratch buffer for Rows64-form epochs.
	rows32 [][]float32
}

// NewAccel builds an unconfigured accelerator backend.
func NewAccel(env Env) *Accel { return &Accel{env: env} }

func (b *Accel) Capabilities() Capabilities {
	return Capabilities{
		Name:                  NameAccelerator,
		Classes:               AllClasses(),
		Precision:             PrecisionFloat32,
		DeterministicCounters: true,
		ModelTolerance:        5e-3, // float32 datapath vs float64 golden
		Streaming:             true,
		Accelerated:           true,
	}
}

// EstimateCost prices the job as cost.DAnA: the compiled program's
// static cycle estimate at the design's thread count, pipelined against
// Strider unpacking and link transfer.
func (b *Accel) EstimateCost(job Job) (Cost, error) {
	return b.estimate(job, b.Capabilities(), func(*cost.Workload) {})
}

// estimate admits job under caps and prices it as cost.DAnA after link
// adjusts the workload's link and Strider terms (Weave's woven stream).
func (b *Accel) estimate(job Job, caps Capabilities, link func(*cost.Workload)) (Cost, error) {
	if err := Admit(caps, job); err != nil {
		return Cost{}, err
	}
	w := job.Workload()
	if job.Engine != nil {
		est := job.Engine.Estimate(job.Design.Engine)
		w.EpochCycles = est.EpochCycles(job.Tuples, max1(job.MergeCoef), job.Design.Engine.Threads)
	}
	link(&w)
	bd := cost.DAnA(w, b.env.Cost, job.Warm)
	return Cost{Seconds: bd.TotalSec, Breakdown: bd}, nil
}

// PriceRun prices the executed run as the paper's pipeline (§5.1.1):
// the slowest of engine, Striders and link bounds it, and disk I/O and
// setup add on top. The link carries the heap pages the run streamed,
// cached replays included.
func (b *Accel) PriceRun(job Job, run Run) (float64, error) {
	return b.priceRun(job, run, b.Capabilities(), cost.Workload{
		DatasetBytes: run.Access.Pages * int64(job.PageSize),
		Pages:        int(run.Access.Pages),
	})
}

// priceRun admits job under caps and prices a run whose link carried
// transfer (Weave ships its own bytes), charged through the channel
// model.
func (b *Accel) priceRun(job Job, run Run, caps Capabilities, transfer cost.Workload) (float64, error) {
	if err := Admit(caps, job); err != nil {
		return 0, err
	}
	clock := b.env.FPGA.ClockHz
	cp := b.env.Cost
	if cp.BandwidthScale == 0 {
		cp.BandwidthScale = 1
	}
	pipe := max(float64(b.Counters().Cycles)/clock, float64(run.Access.Cycles)/clock, cost.TransferSec(transfer, cp))
	return pipe + run.IOSeconds + b.env.Cost.SetupSec, nil
}

// Configure builds the engine machine for the program, applies the
// host-worker fan-out (wall-clock only; modeled cycles are
// schedule-determined), and seeds the initial model.
func (b *Accel) Configure(p Program) error {
	return b.configure(p, p.EngineCfg, b.Capabilities())
}

// configure is shared with the embedding Tabla backend, which passes
// its own engine config and capability set.
func (b *Accel) configure(p Program, cfg engine.Config, caps Capabilities) error {
	if p.Graph == nil || p.Engine == nil {
		return fmt.Errorf("%w: %s needs a compiled engine program", ErrUnsupported, caps.Name)
	}
	class := Classify(p.Graph)
	if !caps.Supports(class) {
		return fmt.Errorf("%w: %s cannot run class=%s", ErrUnsupported, caps.Name, class)
	}
	m, err := engine.NewMachine(p.Engine, cfg)
	if err != nil {
		return err
	}
	m.SetObs(b.env.obs())
	m.SetHostWorkers(hostWorkers(b.env.Workers, p.Striders))
	init := initModel(p)
	if init != nil {
		if err := m.SetModel(narrow32(init)); err != nil {
			return err
		}
	}
	b.batch = max1(p.MergeCoef)
	if b.m != nil {
		b.m.Close()
	}
	b.m, b.class, b.graph = m, class, p.Graph
	b.stream = m.StreamEpoch(b.batch)
	b.feed = b.stream.Feed
	return nil
}

// RunEpoch runs one epoch. The Batches form drives the engine's
// incremental epoch stream in arrival order (the extraction pipeline);
// the materialized forms replay through the engine's whole-epoch entry
// point. Both charge identical modeled counters — the conformance
// suite's determinism check crosses the two forms to prove it.
func (b *Accel) RunEpoch(st *Stream) error {
	if b.m == nil {
		return ErrNotConfigured
	}
	switch {
	case st != nil && st.Batches != nil:
		b.stream.Reset()
		if err := st.Batches(b.feed); err != nil {
			return err
		}
		return b.stream.Finish()
	case st != nil && st.Rows32 != nil:
		return b.m.RunEpoch(st.Rows32, b.batch)
	case st != nil && st.Rows64 != nil:
		if len(b.rows32) != len(st.Rows64) {
			b.rows32 = make([][]float32, len(st.Rows64))
		}
		for i, row := range st.Rows64 {
			if len(b.rows32[i]) != len(row) {
				b.rows32[i] = make([]float32, len(row))
			}
			for j, v := range row {
				b.rows32[i][j] = float32(v)
			}
		}
		return b.m.RunEpoch(b.rows32, b.batch)
	default:
		return b.m.RunEpoch(nil, b.batch)
	}
}

// Score runs inference in the float32 datapath width.
func (b *Accel) Score(model []float64, rows [][]float64) ([]float64, error) {
	if b.m == nil {
		return nil, ErrNotConfigured
	}
	return score32(b.class, b.graph, model, rows)
}

func (b *Accel) Model() []float64 {
	if b.m == nil {
		return nil
	}
	return widen64(b.m.Model())
}

func (b *Accel) SetModel(m []float64) error {
	if b.m == nil {
		return ErrNotConfigured
	}
	return b.m.SetModel(narrow32(m))
}

func (b *Accel) Converged() (bool, error) {
	if b.m == nil {
		return false, ErrNotConfigured
	}
	return b.m.Converged()
}

// Counters returns the engine's modeled cycle decomposition.
func (b *Accel) Counters() engine.Stats {
	if b.m == nil {
		return engine.Stats{}
	}
	return b.m.Stats()
}

// Close releases the machine's host fan-out helpers.
func (b *Accel) Close() {
	if b.m != nil {
		b.m.Close()
	}
}

// hostWorkers mirrors the integration layer's historical clamp: 0 means
// GOMAXPROCS, capped at the design's in-process Strider count.
func hostWorkers(workers, striders int) int {
	if workers <= 0 {
		workers = hostrt.GOMAXPROCS(0)
	}
	if striders > 0 && workers > striders {
		workers = striders
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// initModel resolves a program's starting model: the explicit Init, or
// the class-canonical initialization (LRMF factor models cannot start
// at zero — a stationary point — so they get the reference small
// uniform seeding, narrowed through float32 like every accelerator
// model value).
func initModel(p Program) []float64 {
	if p.Init != nil {
		return p.Init
	}
	if p.Graph == nil || len(p.Graph.RowUpdates) == 0 {
		return nil // GLM zeros are every backend's zero value already
	}
	init := ml.InitModel(ml.LRMF{
		Users: p.Graph.Model.Shape[0], Items: 0, Rank: p.Graph.Model.Shape[1],
	}, 1)
	for i, v := range init {
		init[i] = float64(float32(v))
	}
	return init
}

func narrow32(m []float64) []float32 {
	out := make([]float32, len(m))
	for i, v := range m {
		out[i] = float32(v)
	}
	return out
}

func widen64(m []float32) []float64 {
	out := make([]float64, len(m))
	for i, v := range m {
		out[i] = float64(v)
	}
	return out
}

func max1(n int) int {
	if n < 1 {
		return 1
	}
	return n
}
