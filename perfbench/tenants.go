package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	hostrt "runtime"
	"sort"
	"strings"
	"time"

	"dana/internal/catalog"
	"dana/internal/datagen"
	"dana/internal/hwgen"
	"dana/internal/obs"
	"dana/internal/server"
)

const (
	tenantsCount   = 4
	tenantsJobs    = 64 // jobs per batch
	tenantsBatches = 32 // batches per pass
	probeJobs      = 8  // jobs of the server probe's one batch
	// A tenants pass is long, so a run has few: its insert probe is
	// larger and its set-up is timed several times per pass.
	tenantsProbeInserts = 120
	tenantsSetups       = 32
)

var tenantsWorkload = workload{
	name:         "tenants",
	minPasses:    3,
	setupRepeats: tenantsSetups,
	opsPerPass: fmt.Sprintf("%d × (Submit %d jobs + Drain); %d probe INSERT; %d timed set-ups",
		tenantsBatches, tenantsJobs, tenantsProbeInserts, tenantsSetups),
	newPass: func(cfg runConfig, lay *layers) pass {
		return &tenantsPass{cfg: cfg, lay: lay, batches: tenantBatches(cfg.seed)}
	},
}

// tenantBatches draws a pass's seeded batches. Each is a server.GenLoad
// batch whose virtual arrivals are offset past the previous batch's
// last arrival, so arrivals stay monotone across batches.
func tenantBatches(seed int64) [][]server.JobSpec {
	rng := rand.New(rand.NewSource(seed))
	var out [][]server.JobSpec
	offset := 0.0
	for b := 0; b < tenantsBatches; b++ {
		specs := server.GenLoad(server.LoadConfig{
			Seed: rng.Int63(), Tenants: tenantsCount, Jobs: tenantsJobs,
			Epochs: 2, ScoreFraction: 0.25,
		})
		for i := range specs {
			specs[i].ArriveSec += offset
		}
		offset = specs[len(specs)-1].ArriveSec
		out = append(out, specs)
	}
	return out
}

func newServer(cfg runConfig) (*server.Server, error) {
	return server.New(server.Config{
		Tenants:   server.DefaultTenants(tenantsCount),
		Instances: cfg.workers,
		Policy:    server.PolicySequenceAware,
		Seed:      cfg.seed,
		Workers:   1,
	})
}

type tenantsPass struct {
	cfg     runConfig
	lay     *layers
	batches [][]server.JobSpec
	srv     *server.Server
	rps     map[string]*replayer // per-tenant replay mirrors (traced)
}

func (p *tenantsPass) setup() error {
	var err error
	p.srv, err = newServer(p.cfg)
	if err != nil || p.lay == nil {
		return err
	}
	p.rps = map[string]*replayer{}
	for _, name := range p.srv.TenantNames() {
		// The server's default per-tenant pool (64 MB) and one worker.
		p.rps[name] = newReplayer(64<<20/pageSize, pageSize, 1, p.lay)
	}
	// The set-up layers that first-use jobs run inside the server.
	for _, w := range server.DefaultLoadWorkloads() {
		spec := tableSpec{workload: w, scale: 0.002, merge: 64, epochs: 2}
		if err := traceSetupLayers(p.lay, spec, p.cfg.seed, hwgen.VU9P()); err != nil {
			return err
		}
	}
	return nil
}

func (p *tenantsPass) run(rec *recorder) error {
	for _, specs := range p.batches {
		if err := runBatch(rec, p.srv, specs, p.lay, p.rps, true); err != nil {
			return err
		}
	}
	if p.lay != nil {
		p.lay.pages = 0
		for _, name := range p.srv.TenantNames() {
			p.lay.pages += catalogPages(p.srv.Catalog(name))
		}
	}
	return insertProbe(rec, p.cfg, p.lay, tenantsProbeInserts)
}

// serverProbe times the server layer on workloads whose own loop does
// not use it: one small batch on a fresh server, traced passes only.
func serverProbe(rec *recorder, cfg runConfig, lay *layers) error {
	srv, err := newServer(cfg)
	if err != nil {
		return err
	}
	specs := server.GenLoad(server.LoadConfig{Seed: cfg.seed, Tenants: tenantsCount, Jobs: probeJobs, Epochs: 2})
	return runBatch(rec, srv, specs, lay, nil, false)
}

// runBatch is one closed-loop tenants op: Submit every job of a batch,
// then Drain (timed together). The checks, and traced the replays, run
// after it. measured batches feed the host and modeled metrics.
func runBatch(rec *recorder, srv *server.Server, specs []server.JobSpec, lay *layers,
	rps map[string]*replayer, measured bool) error {
	names := srv.TenantNames()
	var hits0, looks0 int64
	for _, n := range names {
		h, l := cacheCounts(srv.TenantObs(n))
		hits0, looks0 = hits0+h, looks0+l
	}
	var mem0, mem1 hostrt.MemStats
	if lay != nil {
		hostrt.ReadMemStats(&mem0)
	}
	var submit time.Duration
	t := time.Now()
	for _, sp := range specs {
		ts := time.Now()
		if err := srv.Submit(sp); err != nil {
			return fmt.Errorf("submit: %w", err)
		}
		submit += time.Since(ts)
	}
	td := time.Now()
	rep, err := srv.Drain()
	drain := time.Since(td)
	d := time.Since(t)
	if lay != nil {
		hostrt.ReadMemStats(&mem1)
	}
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if rep == nil || len(rep.Results) != len(specs) {
		return fmt.Errorf("drain returned no report for %d jobs", len(specs))
	}

	trainMs := trainLatencies(srv)
	rows := map[[2]string]int{}
	tableRows := func(tenant, workload string) int {
		k := [2]string{tenant, workload}
		if n, ok := rows[k]; ok {
			return n
		}
		n := -1
		if w, err := datagen.ByName(workload); err == nil {
			if rel, err := srv.Catalog(tenant).Table(w.TableName()); err == nil {
				n = rel.NumTuples()
			}
		}
		rows[k] = n
		return n
	}
	if measured {
		digestReport(&rec.digest, rep)
	}

	// Checks: every job succeeded, every score job scored the whole
	// table, and the per-tenant counters sum to the tenant registries.
	var tuples int64
	for i := range rep.Results {
		r := &rep.Results[i]
		sp := r.Placement.Spec
		n := tableRows(sp.Tenant, sp.Workload)
		var err error
		switch {
		case r.Err != nil:
			err = fmt.Errorf("tenant %s %s job on %q: %w", sp.Tenant, sp.Kind, sp.Workload, r.Err)
		case sp.Kind == server.KindScore && r.ScoredRows != n:
			err = fmt.Errorf("tenant %s score on %q: scored %d rows, table has %d", sp.Tenant, sp.Workload, r.ScoredRows, n)
		}
		rec.check(err)
		if sp.Kind == server.KindScore {
			tuples += int64(r.ScoredRows)
		} else {
			tuples += int64(r.Epochs) * int64(n)
		}
	}
	if rep.Errors != 0 {
		rec.fail("batch report counts %d errors", rep.Errors)
	}
	if err := srv.IdentityError(); err != nil {
		rec.fail("%v", err)
	}

	if measured {
		rec.batch = append(rec.batch, ms(d))
		rec.train = append(rec.train, trainMs...)
		rec.busy += d
		rec.jobs += int64(len(rep.Results))
		rec.tuples += tuples
		m := &rec.modeled
		first := math.Inf(1)
		for _, sp := range specs {
			first = math.Min(first, sp.ArriveSec)
		}
		for _, pl := range rep.Plan.Placements {
			m.sojourn = append(m.sojourn, pl.SojournSec()*1e3)
			if pl.Spec.Kind == server.KindTrain {
				m.sim = append(m.sim, pl.ServiceSec*1e3)
			}
			if pl.Reused {
				m.reuses++
			}
			m.placements++
		}
		m.jobs += rep.Jobs
		m.span += rep.MakespanSec - first
	}
	if lay == nil {
		return nil
	}

	t = time.Now()
	if _, err := srv.Replan(specs, srv.Policy()); err != nil {
		return fmt.Errorf("replan: %w", err)
	}
	plan := time.Since(t)
	lay.plan.add(plan, 1)
	lay.submit.add(submit, int64(len(specs)))
	lay.exec.add(drain-plan, 1)
	lay.reconfigs += int64(rep.Plan.Reconfigs)
	for _, r := range rep.Results {
		lay.scoredRows += int64(r.ScoredRows)
	}
	lay.batches++
	if !measured {
		return nil
	}
	lay.ops++
	lay.opWallNs += (drain - plan).Nanoseconds()
	lay.allocBytes += mem1.TotalAlloc - mem0.TotalAlloc
	lay.gcs += uint64(mem1.NumGC - mem0.NumGC)
	for _, n := range names {
		h, l := cacheCounts(srv.TenantObs(n))
		lay.cacheHits += h
		lay.cacheLookups += l
	}
	lay.cacheHits -= hits0
	lay.cacheLookups -= looks0
	return replayJobs(rec, srv, rep, lay, rps)
}

// replayJobs replays the batch's train jobs layer by layer, per tenant
// in the order the tenant ran them, and checks that each replay
// reproduces the job's modeled cycles and model exactly.
func replayJobs(rec *recorder, srv *server.Server, rep *server.Report, lay *layers, rps map[string]*replayer) error {
	var jobs []*server.JobResult
	for i := range rep.Results {
		if r := &rep.Results[i]; r.Placement.Spec.Kind == server.KindTrain && r.Err == nil {
			jobs = append(jobs, r)
		}
	}
	sort.Slice(jobs, func(i, j int) bool {
		a, b := jobs[i].Placement, jobs[j].Placement
		if a.Spec.Tenant != b.Spec.Tenant {
			return a.Spec.Tenant < b.Spec.Tenant
		}
		return a.TenantSeq < b.TenantSeq
	})
	for _, r := range jobs {
		sp := r.Placement.Spec
		cat := srv.Catalog(sp.Tenant)
		udf := ""
		for _, name := range cat.UDFs() {
			if strings.HasSuffix(name, "@"+r.Placement.Key) {
				udf = name
			}
		}
		w, err := datagen.ByName(sp.Workload)
		if err != nil {
			return err
		}
		acc, ok := cat.Accelerator(udf)
		if !ok {
			return fmt.Errorf("tenant %s: no accelerator for configuration %q", sp.Tenant, r.Placement.Key)
		}
		out, err := rps[sp.Tenant].train(cat, udf, w.TableName(), r.Epochs)
		if err != nil {
			return fmt.Errorf("replaying tenant %s job on %q: %w", sp.Tenant, sp.Workload, err)
		}
		lay.measuredTrain(out, acc.Design.Engine.Threads)
		var cerr error
		if out.engine.Cycles != r.EngineCycles || out.access.TotalCycles != r.StriderCycles {
			cerr = fmt.Errorf("replay of tenant %s job on %q: engine/strider cycles %d/%d, job's %d/%d",
				sp.Tenant, sp.Workload, out.engine.Cycles, out.access.TotalCycles, r.EngineCycles, r.StriderCycles)
		}
		for i, v := range r.Model {
			if i >= len(out.model) || float32(out.model[i]) != v {
				cerr = errors.Join(cerr, fmt.Errorf("replay of tenant %s job on %q: model differs at param %d", sp.Tenant, sp.Workload, i))
				break
			}
		}
		if cerr != nil {
			rec.fail("%v", cerr)
		}
	}
	return nil
}

// trainLatencies reads each tenant's trace ring for the host time of
// the batch's Train calls (train.start to train.done), then clears it.
func trainLatencies(srv *server.Server) []float64 {
	var out []float64
	for _, name := range srv.TenantNames() {
		ring := srv.TenantObs(name).Ring()
		var start int64 = -1
		for _, ev := range ring.Events() {
			switch ev.Name {
			case obs.EvTrainStart:
				start = ev.AtNs
			case obs.EvTrainDone:
				if start >= 0 {
					out = append(out, float64(ev.AtNs-start)/1e6)
				}
				start = -1
			}
		}
		ring.Clear()
	}
	return out
}

func cacheCounts(reg *obs.Registry) (hits, lookups int64) {
	h := reg.Get(obs.RuntimeCacheHits)
	return h, h + reg.Get(obs.RuntimeCacheMisses)
}

// catalogPages is the heap size of every table in a catalog.
func catalogPages(cat *catalog.Catalog) int64 {
	var n int64
	for _, name := range cat.Tables() {
		if rel, err := cat.Table(name); err == nil {
			n += int64(rel.NumPages())
		}
	}
	return n
}

func digestReport(dg *digest, rep *server.Report) {
	dg.floats(rep.MakespanSec)
	for _, pl := range rep.Plan.Placements {
		dg.str(pl.Key)
		dg.ints(int64(pl.Seq), int64(pl.Instance), int64(pl.TenantSeq), b2i(pl.Reused))
		dg.floats(pl.StartSec, pl.ConfigSec, pl.ServiceSec, pl.FinishSec)
	}
	for _, r := range rep.Results {
		dg.ints(r.EngineCycles, r.StriderCycles, int64(r.Epochs), int64(r.ScoredRows))
		dg.float32s(r.Model)
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
