package main

import (
	"fmt"
	"math/rand"
	"time"

	"dana"
)

// Workload sizes. Every op count is fixed here, per pass.
var hotTables = []tableSpec{
	{workload: "Remote Sensing LR", scale: 0.01, merge: 64, epochs: 8},
	{workload: "Patient", scale: 0.025, merge: 64, epochs: 8},
	{workload: "Netflix", scale: 0.002, merge: 1, epochs: 8},
}

const (
	hotWarmRounds = 2  // untimed rounds that fill the pool and record cache
	hotRounds     = 24 // measured rounds of one Train per table

	coldFrames = 64 // buffer-pool frames on scan-cold
	coldOps    = 40 // ColdCache + 1-epoch Train, per pass

	ingestRows  = 50 // rows per INSERT: less than a 32 KB page holds
	ingestPairs = 36 // INSERT + Train pairs per pass

	probeInserts = 40 // INSERTs of the insert probe, per pass
)

// scan-cold: a Remote Sensing LR table of about twice the pool's frames.
var coldTable = tableSpec{workload: "Remote Sensing LR", scale: 0.0284, merge: 64, epochs: 1}

// ingest-train: the table the Trains read, small enough to stay in the
// pool. The INSERTs land in a second table of the same engine.
var ingestTable = tableSpec{workload: "Remote Sensing LR", scale: 0.01, merge: 64, epochs: 2}

var hotWorkload = workload{
	name:       "train-hot",
	minPasses:  3,
	opsPerPass: fmt.Sprintf("%d warm-up + %d measured rounds of %d Train; %d probe INSERT", hotWarmRounds, hotRounds, len(hotTables), probeInserts),
	newPass:    func(cfg runConfig, lay *layers) pass { return &hotPass{base: base{cfg: cfg, lay: lay}} },
}

var coldWorkload = workload{
	name:       "scan-cold",
	minPasses:  3,
	opsPerPass: fmt.Sprintf("%d × (ColdCache + Train); %d probe INSERT", coldOps, probeInserts),
	newPass:    func(cfg runConfig, lay *layers) pass { return &coldPass{base: base{cfg: cfg, lay: lay}} },
}

var ingestWorkload = workload{
	name:       "ingest-train",
	minPasses:  3,
	opsPerPass: fmt.Sprintf("1 warm-up Train + %d × (INSERT of %d rows into the write table + Train on the read table)", ingestPairs, ingestRows),
	newPass:    func(cfg runConfig, lay *layers) pass { return &ingestPass{base: base{cfg: cfg, lay: lay}} },
}

// base is the state every training-workload pass shares.
type base struct {
	cfg     runConfig
	lay     *layers
	s       *session
	pending []*trainOp // warm-up ops of setup, checked at the start of run
}

func (b *base) open(poolBytes int64) error {
	s, err := openSession(dana.Config{PageSize: pageSize, PoolBytes: poolBytes, Workers: b.cfg.workers}, b.lay)
	b.s = s
	return err
}

// warm issues a warm-up op during set-up (timed with set-up, never as
// an op); its checks wait for run, outside set-up's timing.
func (b *base) warm(udf, table string) error {
	op, err := b.s.trainTimed(udf, table, false)
	if err != nil {
		return err
	}
	b.pending = append(b.pending, op)
	return nil
}

// finishWarm checks (and, traced, replays) the setup's warm-up ops.
func (b *base) finishWarm(rec *recorder) error {
	for _, op := range b.pending {
		if err := b.s.finishTrain(rec, op, false); err != nil {
			return err
		}
	}
	b.pending = nil
	return nil
}

// setPages records the workload's heap size at the end of a traced pass.
func (b *base) setPages() {
	if b.lay != nil {
		b.lay.pages = catalogPages(b.s.eng.Catalog())
	}
}

// hotPass: round-robin Train over three deployed tables whose pages and
// extracted records are already cached.
type hotPass struct {
	base
	udfs, tables []string
}

func (p *hotPass) setup() error {
	if err := p.open(256 << 20); err != nil {
		return err
	}
	for i, spec := range hotTables {
		udf, table, err := p.s.load(spec, p.cfg.seed+int64(i))
		if err != nil {
			return err
		}
		p.udfs = append(p.udfs, udf)
		p.tables = append(p.tables, table)
	}
	for r := 0; r < hotWarmRounds; r++ {
		for i := range p.udfs {
			if err := p.warm(p.udfs[i], p.tables[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

func (p *hotPass) run(rec *recorder) error {
	if err := p.finishWarm(rec); err != nil {
		return err
	}
	for r := 0; r < hotRounds; r++ {
		var round time.Duration
		for i := range p.udfs {
			d, err := p.s.train(rec, p.udfs[i], p.tables[i])
			if err != nil {
				return err
			}
			round += d
		}
		rec.batch = append(rec.batch, ms(round))
		rec.busy += round
	}
	p.setPages()
	return p.probes(rec)
}

// coldPass: the cold-cache setting on a table larger than the pool.
type coldPass struct {
	base
	udf, table string
}

func (p *coldPass) setup() error {
	if err := p.open(coldFrames * pageSize); err != nil {
		return err
	}
	var err error
	p.udf, p.table, err = p.s.load(coldTable, p.cfg.seed)
	return err
}

func (p *coldPass) run(rec *recorder) error {
	if p.s.rp != nil {
		p.s.rp.cachedEpochProbe = true
	}
	for i := 0; i < coldOps; i++ {
		t := time.Now()
		if err := p.s.eng.ColdCache(); err != nil {
			return err
		}
		cold := time.Since(t)
		if p.s.rp != nil {
			if err := p.s.rp.dropCaches(); err != nil {
				return err
			}
		}
		d, err := p.s.train(rec, p.udf, p.table)
		if err != nil {
			return err
		}
		rec.batch = append(rec.batch, ms(cold+d))
		rec.busy += cold + d
	}
	if len(rec.modeled.sim) > 1 {
		rec.notes = append(rec.notes, fmt.Sprintf(
			"identical cold queries report modeled %.4f ms (first) and %.4f ms (last of %d): "+
				"runtime.System.Train adds the pool's cumulative IOSeconds to SimulatedSeconds",
			rec.modeled.sim[0], rec.modeled.sim[len(rec.modeled.sim)-1], len(rec.modeled.sim)))
	}
	p.setPages()
	return p.probes(rec)
}

// ingestPass: INSERT batches through SQL into one table alternate with
// 2-epoch Trains on another table of the same engine and pool. The
// Trains do not read the written table: a Train after an INSERT into a
// cached page misses the new rows (README.md, defect 1), and no
// operation of the workload may fail. Each pass reproduces that defect
// once on an engine of its own and reports it as a note.
type ingestPass struct {
	base
	udf, table string
	wtable     string // the table the INSERTs land in
	stmts      []string
	rows       [][][]float64
}

func (p *ingestPass) setup() error {
	if err := p.open(256 << 20); err != nil {
		return err
	}
	var err error
	if p.udf, p.table, err = p.s.load(ingestTable, p.cfg.seed); err != nil {
		return err
	}
	rel, err := p.s.eng.Catalog().Table(p.table)
	if err != nil {
		return err
	}
	p.wtable = p.table + "_ingest"
	if err := p.s.createLike(p.wtable, rel.Schema); err != nil {
		return err
	}
	if p.lay != nil {
		if err := p.s.mirrorTable(p.wtable); err != nil {
			return err
		}
	}
	p.stmts, p.rows = insertSchedule(p.cfg.seed, p.wtable, rel.Schema.NumCols(), ingestPairs)
	return p.warm(p.udf, p.table)
}

// insertSchedule draws a pass's seeded INSERT statements.
func insertSchedule(seed int64, table string, ncols, n int) ([]string, [][][]float64) {
	rng := rand.New(rand.NewSource(seed))
	stmts := make([]string, n)
	rows := make([][][]float64, n)
	for i := range stmts {
		stmts[i], rows[i] = insertBatch(rng, table, ncols, ingestRows)
	}
	return stmts, rows
}

func (p *ingestPass) run(rec *recorder) error {
	if err := p.finishWarm(rec); err != nil {
		return err
	}
	for i := range p.stmts {
		di, err := p.s.insert(rec, p.wtable, p.stmts[i], p.rows[i])
		if err != nil {
			return err
		}
		rec.insert = append(rec.insert, ms(di))
		rec.jobs++
		dt, err := p.s.train(rec, p.udf, p.table)
		if err != nil {
			return err
		}
		rec.batch = append(rec.batch, ms(di+dt))
		rec.busy += di + dt
	}
	note, err := staleFrameProbe(p.cfg)
	if err != nil {
		return err
	}
	rec.notes = append(rec.notes, note)
	if p.lay == nil {
		return nil
	}
	p.setPages()
	return serverProbe(rec, p.cfg, p.lay)
}

// staleFrameProbe reproduces program defect 1 of README.md on an engine
// of its own: Train caches a small table's partly filled page, an
// INSERT appends rows to that page, and a second Train reads the
// pool's stale copy. It reports what the second Train consumed; it is
// not an op of the workload and counts in no metric.
func staleFrameProbe(cfg runConfig) (string, error) {
	s, err := openSession(dana.Config{PageSize: pageSize, PoolBytes: 8 << 20, Workers: cfg.workers}, nil)
	if err != nil {
		return "", err
	}
	udf, table, err := s.load(tableSpec{workload: "Remote Sensing LR", scale: 0.0002, merge: 64, epochs: 1}, cfg.seed)
	if err != nil {
		return "", err
	}
	if _, err := s.eng.Train(udf, table); err != nil {
		return "", err
	}
	rel, err := s.eng.Catalog().Table(table)
	if err != nil {
		return "", err
	}
	stmts, rows := insertSchedule(cfg.seed+2, table, rel.Schema.NumCols(), 1)
	if _, err := s.eng.SQL(stmts[0]); err != nil {
		return "", err
	}
	res, err := s.eng.Train(udf, table)
	if err != nil {
		return "", err
	}
	want := int64(res.Epochs) * int64(rel.NumTuples())
	if res.Engine.Tuples == want {
		return fmt.Sprintf("defect 1 (stale pool frames after INSERT) not reproduced: "+
			"a Train after an INSERT of %d rows consumed all %d tuples", len(rows[0]), want), nil
	}
	return fmt.Sprintf("defect 1 (stale pool frames after INSERT) reproduced: a Train after an INSERT of %d rows "+
		"into a cached page consumed %d tuples, want %d epochs × %d rows = %d; "+
		"so ingest-train's Trains read a table its INSERTs do not touch",
		len(rows[0]), res.Engine.Tuples, res.Epochs, rel.NumTuples(), want), nil
}

// probes runs, after a train-hot or scan-cold pass, the insert probe
// and, traced, the server probe.
func (b *base) probes(rec *recorder) error {
	if err := insertProbe(rec, b.cfg, b.lay, probeInserts); err != nil {
		return err
	}
	if b.lay == nil {
		return nil
	}
	return serverProbe(rec, b.cfg, b.lay)
}

// insertProbe measures INSERT latency on workloads whose own loop
// issues none: after the pass, a separate engine takes n seeded INSERT
// statements into a small table of its own. It never touches the
// workload's state.
func insertProbe(rec *recorder, cfg runConfig, lay *layers, n int) error {
	s, err := openSession(dana.Config{PageSize: pageSize, PoolBytes: 8 << 20, Workers: cfg.workers}, nil)
	if err != nil {
		return err
	}
	_, table, err := s.load(tableSpec{workload: "Remote Sensing LR", scale: 0.0002, merge: 64, epochs: 1}, cfg.seed)
	if err != nil {
		return err
	}
	if lay != nil {
		// Traced from here on: only the inserts, not the probe's set-up.
		s.lay = lay
		if err := s.mirrorTable(table); err != nil {
			return err
		}
	}
	rel, err := s.eng.Catalog().Table(table)
	if err != nil {
		return err
	}
	stmts, rows := insertSchedule(cfg.seed+1, table, rel.Schema.NumCols(), n)
	for i := range stmts {
		d, err := s.insert(rec, table, stmts[i], rows[i])
		if err != nil {
			return err
		}
		rec.insert = append(rec.insert, ms(d))
	}
	return nil
}
