package backend

import (
	"fmt"
	"sort"

	"dana/internal/cost"
	"dana/internal/hwgen"
	"dana/internal/obs"
)

// Env is the ambient configuration a backend factory closes over — the
// observability registry, the analytic cost parameters, the modeled
// FPGA (for derived design points), and host-side knobs.
type Env struct {
	Obs      *obs.Registry
	Cost     cost.Params
	FPGA     hwgen.FPGA
	Workers  int
	Segments int // Sharded fan-out (<= 0 = DefaultSegments)
}

// DefaultSegments is the Sharded backend's segment count when Env
// leaves it unset (the paper's Greenplum baseline uses 8 segments).
const DefaultSegments = 8

// registry returns obs handles that are never nil.
func (e Env) obs() *obs.Registry {
	if e.Obs == nil {
		return obs.Noop
	}
	return e.Obs
}

// Factory builds one backend instance for an environment.
type Factory func(env Env) Backend

// Registration ties a dispatch name to a backend factory and, for the
// conformance suite, to the reference semantics the backend promises to
// match. danalint's backendreg check requires every Backend
// implementation to appear in exactly such a registration.
type Registration struct {
	Name string
	New  Factory
	// Reference computes the expected model for a conformance scenario
	// under this backend's declared semantics (env carries knobs the
	// semantics depend on, e.g. the Sharded segment count); nil means the
	// golden trainer (plain/merged IGD per the scenario spec).
	Reference func(env Env, sc Scenario) ([]float64, error)
}

// Builtins returns the registrations of the backends this package
// implements: the DAnA accelerator pipeline, the TABLA-style
// single-threaded design, the golden float64 CPU trainer, and the
// any-precision weave path. The greenplum package contributes Sharded;
// the integration layer assembles the full dispatcher from both.
func Builtins() []Registration {
	return []Registration{
		{Name: NameAccelerator, New: func(env Env) Backend { return NewAccel(env) }},
		{Name: NameTabla, New: func(env Env) Backend { return NewTabla(env) }},
		{Name: NameCPU, New: func(env Env) Backend { return NewCPU(env) }},
		{Name: NameWeave, New: func(env Env) Backend { return NewWeave(env) }, Reference: WeaveReference},
	}
}

// Dispatch names. NameAuto is not a backend: it selects cost-based
// dispatch in Options/Config overrides.
const (
	NameAccelerator = "accelerator"
	NameTabla       = "tabla"
	NameCPU         = "cpu"
	NameSharded     = "sharded"
	NameWeave       = "weave"
	NameAuto        = "auto"
)

// Dispatcher holds the registered backends and implements the
// heterogeneous selection policy.
type Dispatcher struct {
	env  Env
	regs []Registration
}

// NewDispatcher snapshots the registrations (sorted by name, so every
// iteration order below is deterministic). Duplicate or anonymous
// registrations are programmer errors and panic.
func NewDispatcher(env Env, regs ...Registration) *Dispatcher {
	sorted := append([]Registration(nil), regs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for i, r := range sorted {
		if r.Name == "" || r.New == nil {
			panic("backend: registration without name or factory")
		}
		if i > 0 && sorted[i-1].Name == r.Name {
			panic("backend: duplicate registration " + r.Name)
		}
	}
	return &Dispatcher{env: env, regs: sorted}
}

// Names lists the registered backend names in sorted order.
func (d *Dispatcher) Names() []string {
	out := make([]string, len(d.regs))
	for i, r := range d.regs {
		out[i] = r.Name
	}
	return out
}

func (d *Dispatcher) lookup(name string) (Registration, bool) {
	for _, r := range d.regs {
		if r.Name == name {
			return r, true
		}
	}
	return Registration{}, false
}

// Admit rejects, typed ErrUnsupported, a job outside the capabilities'
// class, precision or weave-bit window. The bits check is two-sided: a
// full-width backend (MaxBits == 0) cannot honor a k-bit request, and a
// weave backend serves only k-bit requests — a Bits == 0 job wants the
// float path, however cheap the rewoven stream prices.
func Admit(caps Capabilities, job Job) error {
	bitsOK := job.Bits == 0
	if caps.MaxBits != 0 {
		bitsOK = job.Bits >= caps.MinBits && job.Bits <= caps.MaxBits
	}
	if caps.Supports(job.Class) && (job.Precision == "" || caps.Precision == job.Precision) && bitsOK {
		return nil
	}
	return fmt.Errorf("%w: %s cannot run class=%s precision=%q bits=%d",
		ErrUnsupported, caps.Name, job.Class, job.Precision, job.Bits)
}

// New instantiates the named backend for the job (the explicit-override
// path). Unknown names fail with ErrUnknownBackend; a backend whose
// capabilities don't cover the job fails with ErrUnsupported.
func (d *Dispatcher) New(name string, job Job) (Backend, Registration, error) {
	reg, ok := d.lookup(name)
	if !ok {
		return nil, Registration{}, fmt.Errorf("%w: %q (have %v)", ErrUnknownBackend, name, d.Names())
	}
	be := reg.New(d.env)
	if err := Admit(be.Capabilities(), job); err != nil {
		return nil, Registration{}, err
	}
	return be, reg, nil
}

// Quote is one registered backend's unconfigured instance and price
// for a job, or its typed rejection (Err).
type Quote struct {
	Reg     Registration
	Backend Backend
	Cost    Cost
	Err     error
}

// Quotes builds every registered backend and prices the job on the
// admissible ones, in name order: the one pricing loop behind Pick,
// Failover and the runtime's per-backend cost table.
func (d *Dispatcher) Quotes(job Job) []Quote {
	out := make([]Quote, len(d.regs))
	for i, reg := range d.regs {
		q := Quote{Reg: reg, Backend: reg.New(d.env)}
		if q.Err = Admit(q.Backend.Capabilities(), job); q.Err == nil {
			q.Cost, q.Err = q.Backend.EstimateCost(job)
		}
		out[i] = q
	}
	return out
}

// cheapest returns the lowest-priced admissible quote that keep accepts,
// ties broken by name order (a zero Quote when there is none).
func (d *Dispatcher) cheapest(job Job, keep func(Quote) bool) (best Quote) {
	for _, q := range d.Quotes(job) {
		if q.Err == nil && keep(q) && (best.Backend == nil || q.Cost.Seconds < best.Cost.Seconds) {
			best = q
		}
	}
	return best
}

// Pick is the heterogeneous dispatch policy, documented and
// deterministic:
//
//  1. classify — filter to backends whose Capabilities cover the job's
//     workload class and requested precision;
//  2. price — ask each survivor for EstimateCost (the internal/cost
//     analytic model, so size decides: tiny jobs amortize no
//     accelerator setup and fall to the CPU, large ones win on the
//     accelerated paths);
//  3. choose — minimum modeled seconds, ties broken by name order.
//
// No admissible backend is ErrUnsupported.
func (d *Dispatcher) Pick(job Job) (Backend, Registration, Cost, error) {
	q := d.cheapest(job, func(Quote) bool { return true })
	if q.Backend == nil {
		return nil, Registration{}, Cost{}, fmt.Errorf("%w: no backend for class=%s precision=%q",
			ErrUnsupported, job.Class, job.Precision)
	}
	return q.Backend, q.Reg, q.Cost, nil
}

// Failover selects the degradation target after backend `failed`
// faulted: among backends declaring Capabilities.Fallback (accelerator-
// independent, reference precision) and admissible for the job, the
// cheapest by modeled cost, ties by name. The failed backend is
// excluded even if it declares Fallback.
func (d *Dispatcher) Failover(job Job, failed string) (Backend, Registration, error) {
	q := d.cheapest(job, func(q Quote) bool {
		return q.Reg.Name != failed && q.Backend.Capabilities().Fallback
	})
	if q.Backend == nil {
		return nil, Registration{}, fmt.Errorf("%w: after %q faulted on class=%s", ErrNoFailover, failed, job.Class)
	}
	return q.Backend, q.Reg, nil
}
