package backend

import (
	"fmt"

	"dana/internal/cost"
	"dana/internal/hdfg"
)

// CPU is the golden float64 reference trainer behind the Backend seam:
// the hDFG interpreter, bit-identical to the GoldenSpec trainer (Oracle
// C leg 1). It is the canonical failover target — it shares no modeled
// hardware with the accelerator, and a degraded run continues at
// reference precision.
type CPU struct {
	env Env

	it    *hdfg.Interp
	graph *hdfg.Graph
	class Class
	// rows64 is the scratch buffer for Rows32-form epochs.
	rows64 [][]float64
}

// NewCPU builds an unconfigured CPU backend.
func NewCPU(env Env) *CPU { return &CPU{env: env} }

func (b *CPU) Capabilities() Capabilities {
	return Capabilities{
		Name:          NameCPU,
		Classes:       AllClasses(),
		Precision:     PrecisionFloat64,
		BitExactModel: true, // == golden trainer, bit for bit
		Fallback:      true,
	}
}

// EstimateCost prices the job as single-threaded in-database IGD
// (cost.MADlibPostgres): tuple-at-a-time updates over buffer-pool
// scans, the closest analytic analogue of the interpreter.
func (b *CPU) EstimateCost(job Job) (Cost, error) {
	if err := Admit(b.Capabilities(), job); err != nil {
		return Cost{}, err
	}
	bd := cost.MADlibPostgres(job.Workload(), b.env.Cost, job.Warm)
	return Cost{Seconds: bd.TotalSec, Breakdown: bd}, nil
}

// PriceRun reports the estimate: the interpreter streams no pages.
func (b *CPU) PriceRun(job Job, _ Run) (float64, error) {
	c, err := b.EstimateCost(job)
	return c.Seconds, err
}

func (b *CPU) Configure(p Program) error {
	if p.Graph == nil {
		return fmt.Errorf("%w: %s needs a translated graph", ErrUnsupported, NameCPU)
	}
	class := Classify(p.Graph)
	if !b.Capabilities().Supports(class) {
		return fmt.Errorf("%w: %s cannot run class=%s", ErrUnsupported, NameCPU, class)
	}
	it, err := hdfg.NewInterp(p.Graph, initModel(p))
	if err != nil {
		return err
	}
	b.it, b.graph, b.class = it, p.Graph, class
	return nil
}

// RunEpoch runs one interpreter epoch. Rows32 input is widened to
// float64 — exact, so a CPU epoch over Strider-extracted records sees
// the same values the accelerator datapath would.
func (b *CPU) RunEpoch(st *Stream) error {
	if b.it == nil {
		return ErrNotConfigured
	}
	switch {
	case st != nil && st.Rows64 != nil:
		return b.it.Epoch(st.Rows64)
	case st != nil && st.Rows32 != nil:
		return b.it.Epoch(b.widenRows(st.Rows32))
	case st != nil && st.Batches != nil:
		// Drain the stream into the scratch buffer, then run the epoch:
		// the interpreter has no incremental feed, and the CPU path has
		// no modeled counters that could depend on arrival granularity.
		b.rows64 = b.rows64[:0]
		err := st.Batches(func(rows [][]float32) error {
			for _, row := range rows {
				b.rows64 = append(b.rows64, widen64(row))
			}
			return nil
		})
		if err != nil {
			return err
		}
		return b.it.Epoch(b.rows64)
	default:
		return b.it.Epoch(nil)
	}
}

func (b *CPU) widenRows(rows [][]float32) [][]float64 {
	if len(b.rows64) != len(rows) {
		b.rows64 = make([][]float64, len(rows))
	}
	for i, row := range rows {
		if len(b.rows64[i]) != len(row) {
			b.rows64[i] = make([]float64, len(row))
		}
		for j, v := range row {
			b.rows64[i][j] = float64(v)
		}
	}
	return b.rows64
}

// Score runs inference at float64 precision.
func (b *CPU) Score(model []float64, rows [][]float64) ([]float64, error) {
	if b.it == nil {
		return nil, ErrNotConfigured
	}
	return score64(b.class, b.graph, model, rows)
}

func (b *CPU) Model() []float64 {
	if b.it == nil {
		return nil
	}
	return append([]float64(nil), b.it.Model()...)
}

func (b *CPU) SetModel(m []float64) error {
	if b.it == nil {
		return ErrNotConfigured
	}
	return b.it.SetModel(m)
}

func (b *CPU) Converged() (bool, error) {
	if b.it == nil {
		return false, ErrNotConfigured
	}
	return b.it.Converged()
}
