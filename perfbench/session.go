package main

import (
	"errors"
	"fmt"
	"math/rand"
	hostrt "runtime"
	"strconv"
	"strings"
	"time"

	"dana"
	"dana/internal/backend"
	"dana/internal/bufpool"
	"dana/internal/catalog"
	"dana/internal/compiler"
	"dana/internal/datagen"
	"dana/internal/dsl"
	"dana/internal/hdfg"
	"dana/internal/hwgen"
	"dana/internal/obs"
	"dana/internal/runtime"
	"dana/internal/sql"
	"dana/internal/storage"
	"dana/internal/strider"
	"dana/internal/verify"
)

const pageSize = storage.PageSize32K

// session is one dana.Engine driven by a training workload, with the
// benchmark's checks and, in a traced pass, a replayer mirroring it.
type session struct {
	eng  *dana.Engine
	lay  *layers
	rp   *replayer
	refs map[refKey][]float64
	tol  float64
	// mirrors are heap copies of written tables, for replaying inserts.
	mirrors map[string]*storage.Relation
}

// refKey identifies the table contents a golden model was trained on.
type refKey struct {
	table  string
	gen    uint64
	tuples int
	epochs int
}

// tableSpec is one deployed table and the UDF trained on it.
type tableSpec struct {
	workload string
	scale    float64
	merge    int
	epochs   int
}

func openSession(cfg dana.Config, lay *layers) (*session, error) {
	eng, err := dana.Open(cfg)
	if err != nil {
		return nil, err
	}
	s := &session{
		eng:     eng,
		lay:     lay,
		refs:    map[refKey][]float64{},
		tol:     backend.NewAccel(backend.Env{}).Capabilities().ModelTolerance,
		mirrors: map[string]*storage.Relation{},
	}
	if lay != nil {
		s.rp = newReplayer(eng.Pool().NumFrames(), cfg.PageSize, cfg.Workers, lay)
	}
	return s, nil
}

// load generates and deploys a table and registers its UDF; it returns
// the UDF and table names.
func (s *session) load(spec tableSpec, seed int64) (string, string, error) {
	ds, err := s.eng.LoadWorkload(spec.workload, spec.scale, seed)
	if err != nil {
		return "", "", err
	}
	a, err := ds.DSLAlgo(spec.merge)
	if err != nil {
		return "", "", err
	}
	a.SetEpochs(spec.epochs)
	if err := s.eng.RegisterUDF(a, spec.merge); err != nil {
		return "", "", err
	}
	if s.lay != nil {
		if err := traceSetupLayers(s.lay, spec, seed, s.eng.FPGA()); err != nil {
			return "", "", err
		}
	}
	return a.Name, ds.Rel.Name, nil
}

// traceSetupLayers times, from outside, the module calls that loading a
// table and registering its UDF make: datagen, hDFG translation,
// compilation, hardware generation and Strider verification.
func traceSetupLayers(lay *layers, spec tableSpec, seed int64, fpga hwgen.FPGA) error {
	w, err := datagen.ByName(spec.workload)
	if err != nil {
		return err
	}
	t := time.Now()
	ds, err := datagen.Generate(w, spec.scale, pageSize, seed)
	if err != nil {
		return err
	}
	lay.datagen.add(time.Since(t), 1)
	a, err := ds.DSLAlgo(spec.merge)
	if err != nil {
		return err
	}
	a.SetEpochs(spec.epochs)
	return traceCompile(lay, a, spec.merge, fpga)
}

func traceCompile(lay *layers, a *dsl.Algo, merge int, fpga hwgen.FPGA) error {
	t := time.Now()
	g, err := hdfg.Translate(a)
	if err != nil {
		return err
	}
	lay.translate.add(time.Since(t), 1)
	t = time.Now()
	prog, err := compiler.Compile(g)
	if err != nil {
		return err
	}
	lay.compile.add(time.Since(t), 1)
	t = time.Now()
	if _, err := hwgen.Generate(prog, fpga, hwgen.Params{PageSize: pageSize, MergeCoef: merge, NumTuples: 1 << 16}); err != nil {
		return err
	}
	lay.hwgen.add(time.Since(t), 1)
	t = time.Now()
	sprog, scfg, err := strider.Generate(strider.PostgresLayout(pageSize))
	if err != nil {
		return err
	}
	if err := strider.Verify(sprog, scfg, strider.VerifyOptions{PageSize: pageSize}).Err(false); err != nil {
		return err
	}
	lay.verify.add(time.Since(t), 1)
	return nil
}

// trainOp is one finished Engine.Train call and what was observed
// around it, waiting for its checks.
type trainOp struct {
	udf, table string
	rel        *storage.Relation
	tuples     int // rows when the op started
	loaded     bool
	threads    int
	res        *runtime.TrainResult
	err        error
	wall       time.Duration
	pool       bufpool.Stats // the query's pool counters
	cacheHits  int64
	cacheLooks int64
	allocBytes uint64
	gcs        uint64
}

// trainTimed issues one training op: only Engine.Train is timed.
// memStats also reads the allocator around it (traced passes).
func (s *session) trainTimed(udf, table string, memStats bool) (*trainOp, error) {
	cat := s.eng.Catalog()
	rel, err := cat.Table(table)
	if err != nil {
		return nil, err
	}
	_, loaded := cat.Accelerator(udf)
	op := &trainOp{udf: udf, table: table, rel: rel, tuples: rel.NumTuples(), loaded: loaded}
	reg := s.eng.Obs()
	p0 := s.eng.Pool().Stats()
	h0, m0 := reg.Get(obs.RuntimeCacheHits), reg.Get(obs.RuntimeCacheMisses)
	var mem0, mem1 hostrt.MemStats
	if memStats {
		hostrt.ReadMemStats(&mem0)
	}
	t := time.Now()
	op.res, op.err = s.eng.Train(udf, table)
	op.wall = time.Since(t)
	if memStats {
		hostrt.ReadMemStats(&mem1)
		op.allocBytes = mem1.TotalAlloc - mem0.TotalAlloc
		op.gcs = uint64(mem1.NumGC - mem0.NumGC)
	}
	op.pool = poolSub(s.eng.Pool().Stats(), p0)
	if acc, ok := cat.Accelerator(udf); ok {
		op.threads = acc.Design.Engine.Threads
	}
	op.cacheHits = reg.Get(obs.RuntimeCacheHits) - h0
	op.cacheLooks = op.cacheHits + reg.Get(obs.RuntimeCacheMisses) - m0
	return op, nil
}

// train is one closed-loop training op: Engine.Train is timed; the
// checks and, traced, the layer replay run after it.
func (s *session) train(rec *recorder, udf, table string) (time.Duration, error) {
	op, err := s.trainTimed(udf, table, s.lay != nil)
	if err != nil {
		return 0, err
	}
	return op.wall, s.finishTrain(rec, op, true)
}

// finishTrain checks a training op and, traced, replays it. Measured
// ops feed the metrics; warm-up ops are only checked and replayed. Ops
// must be finished in the order they ran, so the replay mirror follows
// the program's state.
func (s *session) finishTrain(rec *recorder, op *trainOp, measured bool) error {
	if op.err != nil {
		rec.check(fmt.Errorf("train %s on %s: %w", op.udf, op.table, op.err))
		return nil
	}
	res := op.res
	digestTrain(&rec.digest, op.udf, res, op.pool)
	if measured {
		rec.train = append(rec.train, ms(op.wall))
		rec.tuples += res.Engine.Tuples
		rec.jobs++
		m := &rec.modeled
		m.sim = append(m.sim, res.SimulatedSeconds*1e3)
		m.sojourn = append(m.sojourn, res.SimulatedSeconds*1e3)
		m.placements++
		if op.loaded {
			m.reuses++
		}
		m.jobs++
		m.span += res.SimulatedSeconds
	}
	cat := s.eng.Catalog()
	cerr := s.check(cat, op.udf, op.rel, op.tuples, res)
	if s.rp != nil {
		out, err := s.rp.train(cat, op.udf, op.table, res.Epochs)
		if err != nil {
			return fmt.Errorf("replaying train %s on %s: %w", op.udf, op.table, err)
		}
		what := fmt.Sprintf("replay of train %s on %s", op.udf, op.table)
		cerr = errors.Join(cerr, compareReplay(what, res.Engine, res.Access, op.pool, res.Model, out))
		if measured {
			lay := s.lay
			lay.ops++
			lay.measuredTrain(out, op.threads)
			lay.opWallNs += op.wall.Nanoseconds()
			lay.allocBytes += op.allocBytes
			lay.gcs += op.gcs
			lay.cacheHits += op.cacheHits
			lay.cacheLookups += op.cacheLooks
		}
	}
	rec.check(cerr)
	return nil
}

func digestTrain(dg *digest, udf string, res *runtime.TrainResult, pool bufpool.Stats) {
	e, a := res.Engine, res.Access
	dg.str(udf)
	dg.ints(int64(res.Epochs),
		e.Cycles, e.ComputeCycles, e.MergeCycles, e.LoadCycles, e.Tuples, e.Batches, e.Instructions,
		e.SpanLoadCycles, e.SpanComputeCycles, e.IdleCycles,
		a.Pages, a.Tuples, a.Bytes, a.Instructions, a.Cycles, a.TotalCycles,
		pool.Hits, pool.Misses, pool.Evictions, pool.BytesRead)
	dg.floats(pool.IOSeconds, res.SimulatedSeconds)
	dg.float32s(res.Model)
}

// check verifies a training result: every epoch consumed every row the
// table held when the op started, and the model matches the golden
// float64 trainer within the accelerator's conformance tolerance.
func (s *session) check(cat *catalog.Catalog, udf string, rel *storage.Relation, tuples int, res *runtime.TrainResult) error {
	if want := int64(res.Epochs) * int64(tuples); res.Engine.Tuples != want {
		return fmt.Errorf("train %s on %s: consumed %d tuples, want %d epochs × %d rows = %d",
			udf, rel.Name, res.Engine.Tuples, res.Epochs, tuples, want)
	}
	key := refKey{rel.Name, rel.Generation(), tuples, res.Epochs}
	ref, ok := s.refs[key]
	if !ok {
		u, err := cat.UDF(udf)
		if err != nil {
			return err
		}
		if ref, err = goldenModel(u, rel, res.Epochs); err != nil {
			return fmt.Errorf("golden model for %s on %s: %w", udf, rel.Name, err)
		}
		s.refs[key] = ref
	}
	got := make([]float64, len(res.Model))
	for i, v := range res.Model {
		got[i] = float64(v)
	}
	return verify.CompareModels(fmt.Sprintf("train %s on %s vs golden float64 trainer", udf, rel.Name), ref, got, s.tol)
}

// goldenModel trains the UDF's graph on the golden float64 CPU trainer
// over every row of rel, narrowed through float32 like the Strider
// datapath.
func goldenModel(u *catalog.UDF, rel *storage.Relation, epochs int) ([]float64, error) {
	rows, err := scanRows(rel)
	if err != nil {
		return nil, err
	}
	cpu := backend.NewCPU(backend.Env{})
	if err := cpu.Configure(backend.Program{Graph: u.Graph, MergeCoef: u.Graph.MergeCoef, Tuples: len(rows)}); err != nil {
		return nil, err
	}
	for e := 0; e < epochs; e++ {
		if err := cpu.RunEpoch(&backend.Stream{Rows64: rows}); err != nil {
			return nil, err
		}
	}
	return cpu.Model(), nil
}

func scanRows(rel *storage.Relation) ([][]float64, error) {
	var rows [][]float64
	err := rel.Scan(func(_ storage.TID, vals []float64) error {
		r := make([]float64, len(vals))
		for i, v := range vals {
			r[i] = float64(float32(v))
		}
		rows = append(rows, r)
		return nil
	})
	return rows, err
}

// createLike creates an empty table with the columns of schema through
// Engine.SQL.
func (s *session) createLike(table string, schema *storage.Schema) error {
	cols := make([]string, len(schema.Cols))
	for i, c := range schema.Cols {
		cols[i] = c.Name + " " + c.Type.String()
	}
	_, err := s.eng.SQL(fmt.Sprintf("CREATE TABLE %s (%s)", table, strings.Join(cols, ", ")))
	return err
}

// mirrorTable copies a table's heap so a traced pass can replay inserts
// into it at the storage layer.
func (s *session) mirrorTable(table string) error {
	rel, err := s.eng.Catalog().Table(table)
	if err != nil {
		return err
	}
	rows, err := scanRows(rel)
	if err != nil {
		return err
	}
	m := storage.NewRelation(rel.Name, rel.Schema, pageSize)
	if err := m.InsertBatch(rows); err != nil {
		return err
	}
	s.mirrors[table] = m
	return nil
}

// insert is one closed-loop write op: the INSERT statement goes through
// Engine.SQL (timed). Traced, its parse and its heap insert are then
// replayed alone through sql.Parse and storage.Relation.InsertBatch on
// the table's mirror.
func (s *session) insert(rec *recorder, table, stmt string, rows [][]float64) (time.Duration, error) {
	rel, err := s.eng.Catalog().Table(table)
	if err != nil {
		return 0, err
	}
	before := rel.NumTuples()
	t := time.Now()
	res, err := s.eng.SQL(stmt)
	d := time.Since(t)
	if err != nil {
		rec.check(fmt.Errorf("insert into %s: %w", table, err))
		return d, nil
	}
	var cerr error
	if want := fmt.Sprintf("INSERT 0 %d", len(rows)); res.Msg != want || rel.NumTuples() != before+len(rows) {
		cerr = fmt.Errorf("insert into %s: result %q with %d rows after, want %q with %d",
			table, res.Msg, rel.NumTuples(), want, before+len(rows))
	}
	rec.digest.ints(int64(rel.NumTuples()), int64(rel.NumPages()), int64(rel.Generation()))
	if s.lay != nil {
		lay := s.lay
		lay.sqlExec.add(d, 1)
		t = time.Now()
		st, err := sql.Parse(stmt)
		lay.parse.add(time.Since(t), int64(len(rows)))
		if ins, ok := st.(sql.Insert); err != nil || !ok || len(ins.Rows) != len(rows) {
			cerr = errors.Join(cerr, fmt.Errorf("parse of insert into %s: %T, %v", table, st, err))
		}
		m := s.mirrors[table]
		t = time.Now()
		err = m.InsertBatch(rows)
		lay.store.add(time.Since(t), int64(len(rows)))
		if err != nil || m.NumTuples() != rel.NumTuples() || m.NumPages() != rel.NumPages() {
			cerr = errors.Join(cerr, fmt.Errorf("heap replay of insert into %s: %v, %d tuples on %d pages, table has %d on %d",
				table, err, m.NumTuples(), m.NumPages(), rel.NumTuples(), rel.NumPages()))
		}
	}
	rec.check(cerr)
	return d, nil
}

// insertBatch draws one seeded batch of rows for a float4 table of ncols
// columns (features, then a 0/1 label) and renders its INSERT statement.
func insertBatch(rng *rand.Rand, table string, ncols, n int) (string, [][]float64) {
	var b strings.Builder
	b.WriteString("INSERT INTO ")
	b.WriteString(table)
	b.WriteString(" VALUES ")
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, ncols)
		for j := 0; j < ncols-1; j++ {
			row[j] = float64(float32(rng.NormFloat64()))
		}
		row[ncols-1] = float64(rng.Intn(2))
		rows[i] = row
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('(')
		for j, v := range row {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 32))
		}
		b.WriteByte(')')
	}
	return b.String(), rows
}
