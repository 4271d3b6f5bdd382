package main

import (
	"fmt"
	"time"

	"dana/internal/accessengine"
	"dana/internal/backend"
	"dana/internal/bufpool"
	"dana/internal/catalog"
	"dana/internal/engine"
	"dana/internal/obs"
	"dana/internal/storage"
	"dana/internal/strider"
)

// replayer re-executes finished training queries layer by layer through
// each module's public API, timing every call from outside the program:
//
//	bufpool.Pool.Pin/Unpin -> accessengine.Engine.ExtractPage
//	  (strider.VM.Run and accessengine.Deformat timed alone on the same pages)
//	-> engine.EpochStream.Feed/Finish (extracting epochs) or
//	   engine.Machine.RunEpoch (record-cache epochs),
//	behind backend.Accel.Configure/RunEpoch.
//
// It mirrors the state the program's runtime keeps across queries: a
// buffer pool of the same size that sees the same pins in the same
// order, and a record cache with the runtime's validity rule (same
// relation, heap generation and pool invalidation count). Replaying
// every query of a session in order therefore reproduces each query's
// modeled engine, Strider and pool counters exactly, which the caller
// checks.
type replayer struct {
	pool     *bufpool.Pool
	pageSize int
	env      backend.Env
	cache    map[string]*replayEntry
	lay      *layers
	// cachedEpochProbe also times one record-cache epoch over the rows
	// of a query that had none (a cold scan), so engine.epoch_ns_per_tuple
	// is measured on every workload.
	cachedEpochProbe bool
}

type replayEntry struct {
	rel     *storage.Relation
	gen     uint64
	poolGen uint64
	pages   []accessengine.PageResult
	rows    [][]float32
}

// replayOut is one replayed query: its modeled counters and the host
// time spent in the replayed layers that block the query's result.
type replayOut struct {
	engine  engine.Stats
	access  accessengine.Stats
	pool    bufpool.Stats
	model   []float64
	blockNs int64
}

func newReplayer(frames, pageSize, workers int, lay *layers) *replayer {
	return &replayer{
		pool:     bufpool.New(frames, pageSize, bufpool.DefaultDisk()),
		pageSize: pageSize,
		env:      backend.Env{Obs: obs.Noop, Workers: workers},
		cache:    map[string]*replayEntry{},
		lay:      lay,
	}
}

// dropCaches mirrors Engine.ColdCache.
func (rp *replayer) dropCaches() error {
	rp.cache = map[string]*replayEntry{}
	return rp.pool.Invalidate()
}

// clampStriders mirrors the runtime's in-process Strider VM count.
func clampStriders(n int) int {
	if n < 1 {
		return 1
	}
	if n > 16 {
		return 16
	}
	return n
}

// train replays one query of udfName over table that ran epochs epochs.
func (rp *replayer) train(cat *catalog.Catalog, udfName, table string, epochs int) (*replayOut, error) {
	udf, err := cat.UDF(udfName)
	if err != nil {
		return nil, err
	}
	acc, ok := cat.Accelerator(udfName)
	if !ok {
		return nil, fmt.Errorf("replay: UDF %q has no accelerator", udfName)
	}
	rel, err := cat.Table(table)
	if err != nil {
		return nil, err
	}
	if err := rp.pool.AttachRelation(rel); err != nil {
		return nil, err
	}
	nStriders := clampStriders(acc.Design.NumStriders)
	ae, err := accessengine.New(strider.PostgresLayout(rp.pageSize), rel.Schema, nStriders)
	if err != nil {
		return nil, err
	}
	vm := strider.NewVM(ae.Program(), ae.Config())
	vm.Reserve(rp.pageSize)
	lay := rp.lay
	out := &replayOut{}

	t := time.Now()
	m, err := engine.NewMachine(acc.Program, acc.Design.Engine)
	if err != nil {
		return nil, err
	}
	lay.newMachine.add(time.Since(t), 1)
	m.Close()

	prog := backend.Program{
		Graph:     udf.Graph,
		Engine:    acc.Program,
		EngineCfg: acc.Design.Engine,
		Striders:  nStriders,
		MergeCoef: udf.Graph.MergeCoef,
		PageSize:  rp.pageSize,
		Tuples:    rel.NumTuples(),
	}
	be := backend.NewAccel(rp.env)
	t = time.Now()
	if err := be.Configure(prog); err != nil {
		return nil, err
	}
	d := time.Since(t)
	lay.configure.add(d, 1)
	out.blockNs += d.Nanoseconds()
	defer be.Close()

	p0 := rp.pool.Stats()
	col := ae.NewCollector()
	fits := rel.NumPages() <= rp.pool.NumFrames()
	var lastRows [][]float32
	cachedEpochs := 0
	for e := 0; e < epochs; e++ {
		col.Reset()
		if ent := rp.lookup(rel, fits); ent != nil {
			for i := range ent.pages {
				col.Add(&ent.pages[i])
			}
			col.Flush()
			t := time.Now()
			if err := be.RunEpoch(&backend.Stream{Rows32: ent.rows}); err != nil {
				return nil, err
			}
			d := time.Since(t)
			lay.epoch.add(d, int64(len(ent.rows)))
			lay.runEpoch.add(d, 1)
			out.blockNs += d.Nanoseconds()
			cachedEpochs++
			continue
		}
		var fresh *replayEntry
		if fits {
			fresh = &replayEntry{rel: rel, gen: rel.Generation(), poolGen: rp.pool.InvalidationCount()}
		}
		lastRows = lastRows[:0]
		var batchesNs, feedNs, extractNs int64
		st := &backend.Stream{Batches: func(emit func([][]float32) error) error {
			bt := time.Now()
			err := rp.extract(ae, vm, rel, col, func(res *accessengine.PageResult) error {
				ft := time.Now()
				err := emit(res.Rows)
				feedNs += time.Since(ft).Nanoseconds()
				lastRows = append(lastRows, res.Rows...)
				if fresh != nil {
					fresh.pages = append(fresh.pages, *res)
					fresh.rows = append(fresh.rows, res.Rows...)
				}
				return err
			}, &extractNs)
			col.Flush()
			batchesNs = time.Since(bt).Nanoseconds()
			return err
		}}
		t := time.Now()
		if err := be.RunEpoch(st); err != nil {
			return nil, err
		}
		d := time.Since(t)
		// Engine time of an extracting epoch: the feeds plus the stream
		// reset and finish around the batches.
		engineNs := feedNs + d.Nanoseconds() - batchesNs
		lay.feed.add(time.Duration(engineNs), int64(len(lastRows)))
		lay.runEpoch.add(d, 1)
		out.blockNs += engineNs + extractNs
		if fresh != nil {
			rp.cache[rel.Name] = fresh
		}
	}
	out.engine = be.Counters()
	out.access = ae.Stats()
	out.pool = poolSub(rp.pool.Stats(), p0)
	out.model = be.Model()
	lay.replayedCycles += out.engine.Cycles

	if rp.cachedEpochProbe && cachedEpochs == 0 && len(lastRows) > 0 {
		// Not part of the query: time the record-cache engine path on the
		// rows this query extracted, on a separate machine.
		probe := backend.NewAccel(rp.env)
		if err := probe.Configure(prog); err != nil {
			return nil, err
		}
		t := time.Now()
		err := probe.RunEpoch(&backend.Stream{Rows32: lastRows})
		d := time.Since(t)
		probe.Close()
		if err != nil {
			return nil, err
		}
		lay.epoch.add(d, int64(len(lastRows)))
		lay.probeCycles += probe.Counters().Cycles
	}
	return out, nil
}

// lookup mirrors the runtime's record-cache validity rule.
func (rp *replayer) lookup(rel *storage.Relation, fits bool) *replayEntry {
	if !fits {
		return nil
	}
	ent := rp.cache[rel.Name]
	if ent == nil || ent.rel != rel || ent.gen != rel.Generation() || ent.poolGen != rp.pool.InvalidationCount() {
		return nil
	}
	return ent
}

// extract walks every page of rel in the runtime's serial pin order:
// groups of NumStriders pages are pinned, extracted by Strider i of the
// group and then unpinned. Each page is also run through a bare
// strider.VM and accessengine.Deformat to time those two alone.
func (rp *replayer) extract(ae *accessengine.Engine, vm *strider.VM, rel *storage.Relation,
	col *accessengine.Collector, sink func(*accessengine.PageResult) error, blockNs *int64) error {
	lay := rp.lay
	n := ae.NumStriders
	width := rel.Schema.DataWidth()
	var dst []float32
	group := make([]storage.Page, 0, n)
	pinned := make([]uint32, 0, n)
	flush := func() error {
		defer func() {
			t := time.Now()
			for _, pn := range pinned {
				_ = rp.pool.Unpin(rel.Name, pn) // pinned just above, so it is cached
			}
			d := time.Since(t)
			lay.pin.add(d, 0)
			*blockNs += d.Nanoseconds()
			group, pinned = group[:0], pinned[:0]
		}()
		for i, pg := range group {
			res := &accessengine.PageResult{PageNo: int(pinned[i])}
			t := time.Now()
			if err := ae.ExtractPage(i, pg, res); err != nil {
				return err
			}
			d := time.Since(t)
			lay.extract.add(d, 1)
			*blockNs += d.Nanoseconds()

			t = time.Now()
			if err := vm.Run(pg); err != nil {
				return err
			}
			lay.vmRun.add(time.Since(t), 1)
			lay.vmSteps += vm.Steps()
			raw := vm.Out()
			t = time.Now()
			for off := 0; off+width <= len(raw); off += width {
				var err error
				if dst, err = accessengine.Deformat(rel.Schema, raw[off:off+width], dst[:0]); err != nil {
					return err
				}
			}
			lay.deformat.add(time.Since(t), int64(len(raw)/width))

			col.Add(res)
			if err := sink(res); err != nil {
				return err
			}
		}
		return nil
	}
	for pn := 0; pn < rel.NumPages(); pn++ {
		t := time.Now()
		pg, err := rp.pool.Pin(rel.Name, uint32(pn))
		d := time.Since(t)
		lay.pin.add(d, 1)
		*blockNs += d.Nanoseconds()
		if err != nil {
			for _, p := range pinned {
				_ = rp.pool.Unpin(rel.Name, p)
			}
			return err
		}
		group = append(group, pg)
		pinned = append(pinned, uint32(pn))
		if len(group) == n {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

func poolAdd(a, b bufpool.Stats) bufpool.Stats {
	return bufpool.Stats{
		Hits:             a.Hits + b.Hits,
		Misses:           a.Misses + b.Misses,
		Evictions:        a.Evictions + b.Evictions,
		BytesRead:        a.BytesRead + b.BytesRead,
		IOSeconds:        a.IOSeconds + b.IOSeconds,
		Retries:          a.Retries + b.Retries,
		BackoffSeconds:   a.BackoffSeconds + b.BackoffSeconds,
		ChecksumFailures: a.ChecksumFailures + b.ChecksumFailures,
	}
}

func poolSub(a, b bufpool.Stats) bufpool.Stats {
	return bufpool.Stats{
		Hits:             a.Hits - b.Hits,
		Misses:           a.Misses - b.Misses,
		Evictions:        a.Evictions - b.Evictions,
		BytesRead:        a.BytesRead - b.BytesRead,
		IOSeconds:        a.IOSeconds - b.IOSeconds,
		Retries:          a.Retries - b.Retries,
		BackoffSeconds:   a.BackoffSeconds - b.BackoffSeconds,
		ChecksumFailures: a.ChecksumFailures - b.ChecksumFailures,
	}
}

// compareReplay reports the first modeled counter the replay did not
// reproduce exactly.
func compareReplay(what string, eng engine.Stats, acc accessengine.Stats, pool bufpool.Stats, model []float32, out *replayOut) error {
	if eng != out.engine {
		return fmt.Errorf("%s: replayed engine counters %+v != query's %+v", what, out.engine, eng)
	}
	if acc != out.access {
		return fmt.Errorf("%s: replayed access-engine counters %+v != query's %+v", what, out.access, acc)
	}
	if pool != out.pool {
		return fmt.Errorf("%s: replayed pool counters %+v != query's %+v", what, out.pool, pool)
	}
	if len(model) != len(out.model) {
		return fmt.Errorf("%s: replayed model has %d params, query's %d", what, len(out.model), len(model))
	}
	for i, v := range model {
		if float32(out.model[i]) != v {
			return fmt.Errorf("%s: replayed model param %d = %v, query's %v", what, i, out.model[i], v)
		}
	}
	return nil
}
