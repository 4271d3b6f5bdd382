package backend

import (
	"fmt"

	"dana/internal/cost"
	"dana/internal/hwgen"
)

// Tabla is the TABLA-mode backend: the same engine simulator, but on
// the paper's TABLA baseline design point — single-threaded compute
// with CPU-side tuple handoff instead of Striders. Training semantics
// (merge batching, float32 datapath) match the accelerator; the cycle
// model and cost breakdown are the single-thread figures, and the
// backend is non-streaming because TABLA has no in-fabric page walkers.
type Tabla struct {
	Accel
}

// NewTabla builds an unconfigured TABLA backend.
func NewTabla(env Env) *Tabla { return &Tabla{Accel{env: env}} }

func (b *Tabla) Capabilities() Capabilities {
	return Capabilities{
		Name:                  NameTabla,
		Classes:               AllClasses(),
		Precision:             PrecisionFloat32,
		DeterministicCounters: true,
		ModelTolerance:        5e-3,
		Accelerated:           true,
	}
}

// tablaEngine derives the single-threaded design point for the compiled
// program, falling back to a one-thread copy of the DAnA config when
// the TABLA explorer cannot place the program.
func (b *Tabla) tablaEngine(job Job) (cfgOK bool, cfg hwgen.Design) {
	if job.Engine == nil {
		return false, hwgen.Design{}
	}
	td, err := hwgen.TablaDesign(job.Engine, b.env.FPGA, hwgen.Params{
		PageSize: job.PageSize, MergeCoef: 1, NumTuples: job.Tuples,
	})
	if err != nil {
		return false, hwgen.Design{}
	}
	return true, td
}

// EstimateCost prices the job as cost.TABLA: single-thread epoch cycles
// on the TABLA design point, plus the CPU-side feed.
func (b *Tabla) EstimateCost(job Job) (Cost, error) {
	if err := Admit(b.Capabilities(), job); err != nil {
		return Cost{}, err
	}
	w := job.Workload()
	if job.Engine != nil {
		single := job.Design.Engine
		single.Threads = 1
		if ok, td := b.tablaEngine(job); ok {
			single = td.Engine
		}
		w.SingleThreadEpochCycles = job.Engine.Estimate(single).EpochCycles(job.Tuples, max1(job.MergeCoef), 1)
	}
	bd := cost.TABLA(w, b.env.Cost, job.Warm)
	return Cost{Seconds: bd.TotalSec, Breakdown: bd}, nil
}

// PriceRun reports the estimate, overriding the promoted Accel method:
// TABLA streams no pages.
func (b *Tabla) PriceRun(job Job, _ Run) (float64, error) {
	c, err := b.EstimateCost(job)
	return c.Seconds, err
}

// Configure builds the machine on the TABLA design point's engine
// config instead of the provided DAnA one.
func (b *Tabla) Configure(p Program) error {
	if p.Graph == nil || p.Engine == nil {
		return fmt.Errorf("%w: %s needs a compiled engine program", ErrUnsupported, NameTabla)
	}
	cfg := p.EngineCfg
	cfg.Threads = 1
	td, err := hwgen.TablaDesign(p.Engine, b.env.FPGA, hwgen.Params{
		PageSize: p.PageSize, MergeCoef: 1, NumTuples: p.Tuples,
	})
	if err == nil {
		cfg = td.Engine
	}
	// TABLA has no Striders: the host fan-out cap is the single thread.
	p.Striders = 1
	return b.configure(p, cfg, b.Capabilities())
}
