package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// runConfig is one benchmark invocation's settings.
type runConfig struct {
	seed    int64
	seconds time.Duration
	traced  bool
	// workers is every engine's dana.Config.Workers and the server's
	// accelerator instances.
	workers int
}

// workload is a fixed op schedule (a "pass") run on freshly built
// state. Passes repeat until the measurement time is used, so op counts
// per pass, table growth and every modeled number are fixed by the
// benchmark, never by host speed.
type workload struct {
	name string
	// minPasses is the number of passes of each kind (untraced, traced)
	// that always run, so every latency percentile has its sample floor.
	minPasses int
	// setupRepeats is the number of set-ups timed per pass (all but the
	// last are discarded), for workloads whose passes are long and whose
	// set-up is short, so setup_s has enough samples for its median.
	setupRepeats int
	// opsPerPass describes the schedule for the metadata line.
	opsPerPass string
	// newPass builds a pass; lay is nil for an untraced pass.
	newPass func(cfg runConfig, lay *layers) pass
}

// pass is one run of a workload's schedule. setup builds the state and
// is timed as one setup_s sample; run issues the ops in a closed loop
// with one client. Op failures are recorded, not returned: an error
// from setup or run means the benchmark itself cannot continue.
type pass interface {
	setup() error
	run(rec *recorder) error
}

var workloads = []workload{hotWorkload, coldWorkload, ingestWorkload, tenantsWorkload}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runResult aggregates one invocation.
type runResult struct {
	untraced, traced hostAgg
	modeled          modeled // from the first pass; every pass must match it
	digest           uint64
	layers           layers
	opsPerPass       string
	notes            []string
}

func runWorkload(w workload, cfg runConfig) (*runResult, error) {
	res := &runResult{opsPerPass: w.opsPerPass}
	start := time.Now()
	for i := 0; ; i++ {
		traced := cfg.traced && i%2 == 1
		enough := res.untraced.passes >= w.minPasses && (!cfg.traced || res.traced.passes >= w.minPasses)
		if enough && time.Since(start) >= cfg.seconds {
			break
		}
		var lay *layers
		if traced {
			lay = &res.layers
		}
		// Every pass starts from a collected heap with its free memory
		// returned to the OS, so the previous pass's garbage sets
		// neither this pass's GC pacing nor its RSS (peak_rss_mb).
		debug.FreeOSMemory()
		var p pass
		var setups []float64
		for k := 0; k < max(1, w.setupRepeats); k++ {
			p = w.newPass(cfg, lay)
			t0 := time.Now()
			if err := p.setup(); err != nil {
				return nil, fmt.Errorf("%s: pass %d setup: %w", w.name, i, err)
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		rec := &recorder{}
		if err := p.run(rec); err != nil {
			return nil, fmt.Errorf("%s: pass %d: %w", w.name, i, err)
		}
		d := rec.digest.sum()
		if i == 0 {
			res.digest, res.modeled = d, rec.modeled
			res.notes = rec.notes
		} else if d != res.digest {
			rec.fail("pass %d: modeled digest %016x differs from pass 0's %016x", i, d, res.digest)
		}
		if traced {
			res.traced.add(rec, setups)
		} else {
			res.untraced.add(rec, setups)
		}
	}
	return res, nil
}

// recorder collects one pass.
type recorder struct {
	train, insert, batch []float64 // host ms per op
	busy                 time.Duration
	tuples               int64 // tuples consumed (epochs × rows) plus rows scored
	jobs                 int64 // ops completed (server jobs on tenants)
	attempted, failed    int
	failures             []string
	modeled              modeled
	digest               digest
	notes                []string
}

// check counts one checked op and records its failure, if any.
func (r *recorder) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.failures = append(r.failures, err.Error())
	}
}

// fail records a failed check that is not an op of its own.
func (r *recorder) fail(format string, args ...any) {
	r.attempted++
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// modeled holds one pass's modeled-clock outcomes. They repeat exactly
// for a given seed; the digest proves it.
type modeled struct {
	sim        []float64 // modeled ms per training op (tenants: per train job)
	sojourn    []float64 // modeled ms from arrival to finish
	reuses     int
	placements int
	jobs       int     // jobs placed on the modeled clock
	span       float64 // modeled seconds those jobs took
}

// hostAgg aggregates the host-clock samples of one kind of pass. Each
// host metric is computed per pass and reported as the median over
// passes, so a pass slowed by the host (CPU steal on a shared VM) moves
// it less than pooling would.
type hostAgg struct {
	passes                  int
	setups                  []float64
	perPass                 map[string][]float64 // host metric -> one value per pass
	trains, inserts, cycles int
	attempted, failed       int
	failures                []string
}

func (a *hostAgg) add(r *recorder, setups []float64) {
	if a.perPass == nil {
		a.perPass = map[string][]float64{}
	}
	busy := r.busy.Seconds()
	for name, v := range map[string]float64{
		"train_ms_p50":  percentile(r.train, 0.50),
		"train_ms_p90":  percentile(r.train, 0.90),
		"insert_ms_p50": percentile(r.insert, 0.50),
		"insert_ms_p90": percentile(r.insert, 0.90),
		"batch_ms_p50":  percentile(r.batch, 0.50),
		"batch_ms_p90":  percentile(r.batch, 0.90),
		"tuples_per_s":  div(float64(r.tuples), busy),
		"jobs_per_s":    div(float64(r.jobs), busy),
	} {
		a.perPass[name] = append(a.perPass[name], v)
	}
	a.passes++
	a.setups = append(a.setups, setups...)
	a.trains += len(r.train)
	a.inserts += len(r.insert)
	a.cycles += len(r.batch)
	a.attempted += r.attempted
	a.failed += r.failed
	for _, f := range r.failures {
		if len(a.failures) < 50 {
			a.failures = append(a.failures, f)
		}
	}
}

func (a *hostAgg) opCounts() string {
	return fmt.Sprintf("train=%d insert=%d batch=%d checked=%d failed=%d",
		a.trains, a.inserts, a.cycles, a.attempted, a.failed)
}

// metric is one named number of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndNames are the gated metrics, in BENCHMARK.json order.
var endToEndNames = []string{
	"setup_s", "train_ms_p50", "train_ms_p90", "insert_ms_p50", "insert_ms_p90",
	"batch_ms_p50", "batch_ms_p90", "tuples_per_s", "jobs_per_s", "sim_ms_mean",
	"vjobs_per_s", "vsojourn_ms_p99", "reuse_pct", "peak_rss_mb", "ok_frac",
}

func endToEnd(a *hostAgg, m modeled) map[string]metric {
	host := func(name string) float64 { return median(a.perPass[name]) }
	okFrac := div(float64(a.attempted-a.failed), float64(a.attempted))
	vjobs := div(float64(m.jobs), m.span)
	reuse := 100 * div(float64(m.reuses), float64(m.placements))
	return map[string]metric{
		"setup_s":         {median(a.setups), "s"},
		"train_ms_p50":    {host("train_ms_p50"), "ms"},
		"train_ms_p90":    {host("train_ms_p90"), "ms"},
		"insert_ms_p50":   {host("insert_ms_p50"), "ms"},
		"insert_ms_p90":   {host("insert_ms_p90"), "ms"},
		"batch_ms_p50":    {host("batch_ms_p50"), "ms"},
		"batch_ms_p90":    {host("batch_ms_p90"), "ms"},
		"tuples_per_s":    {host("tuples_per_s"), "1/s"},
		"jobs_per_s":      {host("jobs_per_s"), "1/s"},
		"sim_ms_mean":     {mean(m.sim), "sim_ms"},
		"vjobs_per_s":     {vjobs, "1/sim_s"},
		"vsojourn_ms_p99": {percentile(m.sojourn, 0.99), "sim_ms"},
		"reuse_pct":       {reuse, "%"},
		"peak_rss_mb":     {peakRSSMB(), "MB"},
		"ok_frac":         {okFrac, "fraction"},
	}
}

// percentile is the nearest-rank q-quantile of xs (0 when empty).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the middle value of xs (mean of the middle two when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMB is the process's resident-set high-water mark (getrusage
// ru_maxrss, in KB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// digest hashes modeled counters and model bits in op order.
type digest struct{ h hash.Hash64 }

func (d *digest) ints(vs ...int64) {
	if d.h == nil {
		d.h = fnv.New64a()
	}
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		d.h.Write(b[:])
	}
}

func (d *digest) floats(vs ...float64) {
	for _, v := range vs {
		d.ints(int64(math.Float64bits(v)))
	}
}

func (d *digest) float32s(vs []float32) {
	for _, v := range vs {
		d.ints(int64(math.Float32bits(v)))
	}
}

func (d *digest) str(s string) {
	d.ints(int64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digest) sum() uint64 {
	if d.h == nil {
		return 0
	}
	return d.h.Sum64()
}
