package main

import (
	"time"

	"dana/internal/accessengine"
	"dana/internal/bufpool"
	"dana/internal/engine"
)

// span accumulates host time spent in one kind of call and the units of
// work (pages, tuples, calls) it covered.
type span struct{ ns, n int64 }

func (s *span) add(d time.Duration, units int64) {
	s.ns += d.Nanoseconds()
	s.n += units
}

// per is the mean host nanoseconds per unit, divided by scale
// (1 = ns, 1e3 = us, 1e6 = ms).
func (s span) per(scale float64) float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.ns) / float64(s.n) / scale
}

// layers accumulates the traced passes of one run. Host-time rates
// (per page, per tuple, per call) cover every replayed call, warm-up
// queries included; per-op figures and modeled counters cover the
// measured ops only.
type layers struct {
	// Host time of replayed calls.
	pin, extract, vmRun, deformat span // per page / page / page / tuple
	vmSteps                       int64
	feed, epoch                   span // per tuple: extracting / record-cache epochs
	newMachine, configure         span // per call
	runEpoch                      span // per epoch
	replayedCycles                int64
	probeCycles                   int64 // the cold-scan record-cache probe

	// Measured ops: modeled counters of the replayed queries.
	ops        int64
	engine     engine.Stats
	utilCycles float64 // Σ utilization × cycles, for a cycle-weighted mean
	access     accessengine.Stats
	pool       bufpool.Stats

	// Measured ops: host figures around the program's own calls.
	opWallNs     int64 // Engine.Train wall, or Drain − plan on tenants
	blockNs      int64 // replayed blocking layer time of the same ops
	allocBytes   uint64
	gcs          uint64
	cacheHits    int64
	cacheLookups int64

	// Writes.
	sqlExec, parse, store span // per call / row / row
	pages                 int64

	// Server.
	plan, submit, exec span // per batch / job / batch
	reconfigs          int64
	scoredRows         int64
	batches            int64

	// Set-up layers.
	datagen, translate, compile, hwgen, verify span
}

// measuredTrain folds one measured training op's replay into the
// modeled sums.
func (l *layers) measuredTrain(out *replayOut, threads int) {
	l.engine = addEngine(l.engine, out.engine)
	l.utilCycles += out.engine.Utilization(threads) * float64(out.engine.Cycles)
	l.access = addAccess(l.access, out.access)
	l.pool = poolAdd(l.pool, out.pool)
	l.blockNs += out.blockNs
}

// perLayerNames are the per-layer metrics, in BENCHMARK.json order.
var perLayerNames = []string{
	"engine.epoch_ns_per_tuple", "engine.feed_ns_per_tuple", "engine.host_ns_per_cycle",
	"engine.new_machine_us", "engine.cycles_per_tuple", "engine.load_share",
	"engine.compute_share", "engine.merge_share", "engine.utilization",
	"bufpool.pin_ns", "bufpool.hit_ratio", "bufpool.misses_per_op",
	"bufpool.evictions_per_op", "bufpool.io_sim_ms_per_op",
	"strider.run_ns_per_page", "strider.host_ns_per_vm_instr",
	"strider.vm_instr_per_page", "strider.cycles_per_page",
	"accessengine.extract_ns_per_page", "accessengine.deformat_ns_per_tuple",
	"accessengine.bytes_per_tuple",
	"backend.configure_us", "backend.run_epoch_ms",
	"runtime.self_ms_per_op", "runtime.alloc_kb_per_op", "runtime.gc_per_op",
	"runtime.cache_hit_ratio",
	"sql.insert_exec_us", "sql.parse_us_per_row",
	"storage.insert_us_per_row", "storage.pages",
	"server.plan_us_per_batch", "server.submit_us_per_job", "server.exec_ms_per_batch",
	"server.reconfigs_per_batch", "server.scored_rows_per_batch",
	"datagen.generate_ms", "hdfg.translate_us", "compiler.compile_us",
	"hwgen.generate_us", "strider.verify_us",
}

func (l *layers) metrics() map[string]metric {
	ops := float64(l.ops)
	e := l.engine
	cyc := float64(e.Cycles)
	// Engine host time over the cycles it simulated, the cold-scan probe
	// included on both sides.
	engineNs := float64(l.feed.ns + l.epoch.ns)
	a := l.access
	batches := float64(l.batches)
	return map[string]metric{
		"engine.epoch_ns_per_tuple": {l.epoch.per(1), "ns"},
		"engine.feed_ns_per_tuple":  {l.feed.per(1), "ns"},
		"engine.host_ns_per_cycle":  {div(engineNs, float64(l.replayedCycles+l.probeCycles)), "ns"},
		"engine.new_machine_us":     {l.newMachine.per(1e3), "us"},
		"engine.cycles_per_tuple":   {div(cyc, float64(e.Tuples)), "sim_cycles"},
		"engine.load_share":         {div(float64(e.SpanLoadCycles), cyc), "fraction"},
		"engine.compute_share":      {div(float64(e.SpanComputeCycles), cyc), "fraction"},
		"engine.merge_share":        {div(float64(e.MergeCycles), cyc), "fraction"},
		"engine.utilization":        {div(l.utilCycles, cyc), "fraction"},

		"bufpool.pin_ns":           {l.pin.per(1), "ns"},
		"bufpool.hit_ratio":        {l.pool.HitRatio(), "fraction"},
		"bufpool.misses_per_op":    {div(float64(l.pool.Misses), ops), "count"},
		"bufpool.evictions_per_op": {div(float64(l.pool.Evictions), ops), "count"},
		"bufpool.io_sim_ms_per_op": {div(l.pool.IOSeconds*1e3, ops), "sim_ms"},

		"strider.run_ns_per_page":      {l.vmRun.per(1), "ns"},
		"strider.host_ns_per_vm_instr": {div(float64(l.vmRun.ns), float64(l.vmSteps)), "ns"},
		"strider.vm_instr_per_page":    {div(float64(a.Instructions), float64(a.Pages)), "count"},
		"strider.cycles_per_page":      {div(float64(a.TotalCycles), float64(a.Pages)), "sim_cycles"},

		"accessengine.extract_ns_per_page":   {l.extract.per(1), "ns"},
		"accessengine.deformat_ns_per_tuple": {l.deformat.per(1), "ns"},
		"accessengine.bytes_per_tuple":       {div(float64(a.Bytes), float64(a.Tuples)), "bytes"},

		"backend.configure_us": {l.configure.per(1e3), "us"},
		"backend.run_epoch_ms": {l.runEpoch.per(1e6), "ms"},

		"runtime.self_ms_per_op":  {div(float64(l.opWallNs-l.blockNs)/1e6, ops), "ms"},
		"runtime.alloc_kb_per_op": {div(float64(l.allocBytes)/1024, ops), "KB"},
		"runtime.gc_per_op":       {div(float64(l.gcs), ops), "count"},
		"runtime.cache_hit_ratio": {div(float64(l.cacheHits), float64(l.cacheLookups)), "fraction"},

		"sql.insert_exec_us":   {l.sqlExec.per(1e3), "us"},
		"sql.parse_us_per_row": {l.parse.per(1e3), "us"},

		"storage.insert_us_per_row": {l.store.per(1e3), "us"},
		"storage.pages":             {float64(l.pages), "count"},

		"server.plan_us_per_batch":     {l.plan.per(1e3), "us"},
		"server.submit_us_per_job":     {l.submit.per(1e3), "us"},
		"server.exec_ms_per_batch":     {l.exec.per(1e6), "ms"},
		"server.reconfigs_per_batch":   {div(float64(l.reconfigs), batches), "count"},
		"server.scored_rows_per_batch": {div(float64(l.scoredRows), batches), "count"},
		"datagen.generate_ms":          {l.datagen.per(1e6), "ms"},
		"hdfg.translate_us":            {l.translate.per(1e3), "us"},
		"compiler.compile_us":          {l.compile.per(1e3), "us"},
		"hwgen.generate_us":            {l.hwgen.per(1e3), "us"},
		"strider.verify_us":            {l.verify.per(1e3), "us"},
	}
}

func addEngine(a, b engine.Stats) engine.Stats {
	return engine.Stats{
		Cycles:            a.Cycles + b.Cycles,
		ComputeCycles:     a.ComputeCycles + b.ComputeCycles,
		MergeCycles:       a.MergeCycles + b.MergeCycles,
		LoadCycles:        a.LoadCycles + b.LoadCycles,
		Tuples:            a.Tuples + b.Tuples,
		Batches:           a.Batches + b.Batches,
		Instructions:      a.Instructions + b.Instructions,
		SpanLoadCycles:    a.SpanLoadCycles + b.SpanLoadCycles,
		SpanComputeCycles: a.SpanComputeCycles + b.SpanComputeCycles,
		IdleCycles:        a.IdleCycles + b.IdleCycles,
	}
}

func addAccess(a, b accessengine.Stats) accessengine.Stats {
	return accessengine.Stats{
		Pages:        a.Pages + b.Pages,
		Tuples:       a.Tuples + b.Tuples,
		Bytes:        a.Bytes + b.Bytes,
		Instructions: a.Instructions + b.Instructions,
		Cycles:       a.Cycles + b.Cycles,
		TotalCycles:  a.TotalCycles + b.TotalCycles,
	}
}
