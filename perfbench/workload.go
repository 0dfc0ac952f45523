package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"littletable/internal/clock"
	"littletable/internal/core"
	"littletable/internal/schema"
	"littletable/internal/vfs"
)

// workload is one traffic mix. The fields are the numbers recorded in
// BENCHMARK.json; change them only together with it.
type workload struct {
	name string
	// closed: pollers wait for each ack before sending the next batch.
	// open: requests are due on a seeded schedule whatever the system does.
	closed     bool
	pollers    int        // closed loop: concurrent pollers, one connection each
	batchRows  int        // rows per InsertNow batch
	insertRate float64    // open loop: rows/s on the insert lane (0 = none)
	readRate   float64    // open loop: reads/s
	readLanes  int        // open loop: connections serving reads
	mix        mixWeights // read mix weights: scan, netscan, latest, agg
	period     int64      // µs between one device's samples
	history    int        // preloaded samples per device
	maxLag     int64      // µs a device's reports may arrive late
	window     int64      // recent-window reads: µs of a device's newest data; 0 = dashboard lookbacks
	tables     int        // traffic goes to tenant tables [0, tables)
	// alignEnd, when set, ends the history at the last multiple of it
	// before now, so the engine's time periods (§3.4.2: 4-hour, day and
	// week spans from the epoch) cut the history the same way whenever
	// the benchmark runs.
	alignEnd int64
}

const (
	// ingestPeriod spaces each device's samples so that, at about the
	// closed-loop rate measured when this benchmark was introduced
	// (~75,000 rows/s), run-time timestamps keep pace with the wall clock.
	ingestPeriod = numDevices * 1e6 / 75000
	// The mixed workload writes and reads four tenants. Its insert rate
	// is set by the read side: 200 reads/s keep the read lane about a
	// quarter busy, and 800 rows/s make rows read to rows written ~10:1.
	mixedTables     = 4
	mixedInsertRate = 800.0
	mixedPeriod     = mixedTables * devicesPerTable * 1e6 / mixedInsertRate
	// windowSamples is how many of a device's newest samples a recent-
	// window read covers; a table's window (64 devices) fits its cache.
	windowSamples = 50
	// samplesPerWeek is a dashboard device's samples per week: its
	// 24-week history fills each table with over 8 times its cache.
	samplesPerWeek = int(clock.Week / (2 * clock.Hour))
)

var workloads = map[string]*workload{
	"ingest": {
		name: "ingest", closed: true, pollers: 2, batchRows: 256,
		period: ingestPeriod, maxLag: 2 * clock.Second, history: 2 * windowSamples,
		window: windowSamples / 5 * ingestPeriod, tables: numTables,
	},
	"dashboard": {
		name: "dashboard", readRate: 70, readLanes: 2,
		mix:    mixWeights{0.25, 0.25, 0.25, 0.25},
		period: 2 * clock.Hour, history: 24 * samplesPerWeek, tables: numTables, alignEnd: clock.Week,
	},
	"mixed": {
		name: "mixed", batchRows: 16, insertRate: mixedInsertRate,
		readRate: 200, readLanes: 1, mix: mixWeights{0.8, 0, 0.2, 0},
		period: mixedPeriod, history: 2 * windowSamples, maxLag: 2 * clock.Second,
		window: windowSamples * mixedPeriod, tables: mixedTables,
	},
}

// devices is the number of devices the workload's traffic reaches.
func (wl *workload) devices() int { return wl.tables * devicesPerTable }

// tableList returns the tenant tables the workload's traffic reaches.
func (wl *workload) tableList() []int {
	out := make([]int, wl.tables)
	for t := range out {
		out[t] = t
	}
	return out
}

// opsInMix reports which request classes the timed phase issues.
func (wl *workload) opsInMix() [numOps]bool {
	var in [numOps]bool
	for i, x := range wl.mix {
		in[i] = x > 0 && wl.readRate > 0
	}
	in[opInsert] = wl.closed || wl.insertRate > 0
	return in
}

// session is one benchmark invocation's state.
type session struct {
	wl      *workload
	seed    int64
	seconds float64
	dir     string
	fsys    vfs.FS // nil except in the traced run
	c       *cluster
	w       *world
	sent    []int64 // per device: samples handed to the client (open loop inserts)
	lat     latencies
	loop    loopStats
	checks  []check
	checkMu sync.Mutex

	attempted, failed atomic.Int64
	ackedRows         atomic.Int64
	phaseSeconds      float64
	setupSeconds      []float64
	setupStats        core.StatsSnapshot // counters of the final set-up
	sources           []*batchSource
	probeTurn         int
	remotes           []*remote // every load-generator client, for client counters
	rssPeak           float64   // MB, sampled during the timed phase
}

// check is a read to verify against the model after the timed phase,
// so verification does not compete with the system for CPU.
type check struct {
	r   readReq
	got outcome
}

func nowMicros() int64 { return time.Now().UnixMicro() }

// setupRepeats is how many times an untraced run sets up: set-up time
// is their median.
const setupRepeats = 3

// setup starts a cluster, creates the tables, preloads the history and
// quiesces, repeats times; the last cluster is the one measured.
func (s *session) setup(repeats int) error {
	for i := 0; i < repeats; i++ {
		start := time.Now()
		dir := filepath.Join(s.dir, fmt.Sprintf("setup%d", i))
		c, err := startCluster(dir, s.fsys)
		if err != nil {
			return err
		}
		if err := c.createTables(); err != nil {
			c.close()
			return err
		}
		t0 := nowMicros()
		if s.wl.alignEnd > 0 {
			t0 -= t0 % s.wl.alignEnd
		}
		tl := newTimeline(s.seed, t0, s.wl.period, s.wl.history, s.wl.maxLag)
		if err := preload(c, tl); err != nil {
			c.close()
			return err
		}
		if err := c.quiesce(); err != nil {
			c.close()
			return err
		}
		s.setupSeconds = append(s.setupSeconds, time.Since(start).Seconds())
		if i < repeats-1 {
			if err := c.close(); err != nil {
				return err
			}
			if err := (vfs.OsFS{}).RemoveAll(dir); err != nil {
				return err
			}
			continue
		}
		s.c = c
		s.w = &world{tl: tl, acked: make([]int64, numDevices)}
		s.sent = make([]int64, numDevices)
		s.setupStats, _, _ = c.statsSum()
	}
	return nil
}

// preload inserts every device's history in process, oldest samples
// first, the order in which devices would have reported them. Each
// insert call carries about one memtable of rows and is flushed at once,
// as the maintenance tick would have flushed it had the rows arrived
// over time; a burst of sealed memtables would instead stay reachable
// from the engine's flush queue long after it is written. Tables load
// in parallel, as many at a time as the process has CPUs.
func preload(c *cluster, tl *timeline) error {
	const chunk = 22 // samples per device per insert call: ~1,400 rows
	return c.forTablesParallel(func(t int, tab *core.Table) error {
		for j0 := -int64(tl.History); j0 < 0; j0 += chunk {
			rows := make([]schema.Row, 0, chunk*devicesPerTable)
			for j := j0; j < j0+chunk && j < 0; j++ {
				for i := 0; i < devicesPerTable; i++ {
					rows = append(rows, tl.row(t*devicesPerTable+i, j))
				}
			}
			if err := tab.Insert(rows); err != nil {
				return err
			}
			if err := tab.FlushAll(); err != nil {
				return err
			}
		}
		return nil
	})
}

// acked marks a batch's samples stored. Per device, samples go out in
// order on one lane, so the newest acked sample bounds the stored ones.
func (s *session) acked(b *batch) {
	for _, smp := range b.samples {
		atomic.StoreInt64(&s.w.acked[smp.g], smp.j+1)
	}
	s.ackedRows.Add(int64(len(b.rows)))
}

func (s *session) sending(b *batch) {
	for _, smp := range b.samples {
		atomic.StoreInt64(&s.sent[smp.g], smp.j+1)
	}
}

// fail counts n failed requests and reports the first few on stderr.
func (s *session) fail(n int64, what string, err error) {
	if s.failed.Add(n) <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", what, err)
	}
}

// doInsert sends one batch on t and books the outcome.
func (s *session) doInsert(ctx context.Context, t target, b *batch) error {
	s.sending(b)
	s.attempted.Add(1)
	err := t.insert(ctx, b)
	if err != nil {
		s.fail(1, "insert", err)
		return err
	}
	s.acked(b)
	return nil
}

// fill sets a read's time window. Dashboard reads look back a
// Figure 10 lookback from the end of the history; the other workloads
// read the most recent window of the device's, network's or table's
// data.
func (s *session) fill(r *readReq) {
	tl := s.w.tl
	if s.wl.window == 0 {
		r.Present = atomic.LoadInt64(&s.w.acked[r.Device])
		r.MinTs, r.MaxTs = tl.T0-r.Lookback, tl.T0
		return
	}
	var hi int64
	switch r.Op {
	case opScan, opLatest:
		r.Prefix = 2
		r.Present = atomic.LoadInt64(&s.w.acked[r.Device])
		hi = tl.ts(r.Device, r.Present-1)
	case opNetscan:
		hi = s.newestTs(networkFirstDevice(r.Network), devicesPerNetwork)
	default:
		hi = s.newestTs(r.Table*devicesPerTable, devicesPerTable)
	}
	r.MinTs, r.MaxTs = hi-s.wl.window, hi
}

// newestTs is the newest stored timestamp among n devices from first.
func (s *session) newestTs(first, n int) int64 {
	newest := int64(math.MinInt64)
	for g := first; g < first+n; g++ {
		if ts := s.w.tl.ts(g, atomic.LoadInt64(&s.w.acked[g])-1); ts > newest {
			newest = ts
		}
	}
	return newest
}

// doRead issues r on t and queues it for checking.
func (s *session) doRead(ctx context.Context, t target, r readReq) error {
	s.attempted.Add(1)
	got, err := t.read(ctx, r)
	if err != nil {
		s.fail(1, r.Op.String(), err)
		return err
	}
	if r.Op == opLatest && r.Prefix == 2 {
		r.SentAfter = atomic.LoadInt64(&s.sent[r.Device])
	}
	s.checkMu.Lock()
	s.checks = append(s.checks, check{r: r, got: got})
	s.checkMu.Unlock()
	return nil
}

// runPhase runs the timed phase.
func (s *session) runPhase(ctx context.Context) error {
	span := time.Duration(s.seconds * float64(time.Second))
	if s.wl.closed {
		return s.closedLoop(ctx, span)
	}
	return s.openLoops(ctx, span)
}

// closedLoop: each poller owns every pollers-th table and sends its
// next batch as soon as the previous one is acknowledged.
func (s *session) closedLoop(ctx context.Context, span time.Duration) error {
	lanes := make([]*remote, s.wl.pollers)
	for p := range lanes {
		rm, err := s.routerClient()
		if err != nil {
			return err
		}
		defer rm.close()
		lanes[p] = rm
		var tables []int
		for t := p; t < s.wl.tables; t += s.wl.pollers {
			tables = append(tables, t)
		}
		s.sources = append(s.sources, newBatchSource(s.w.tl, tables, s.wl.batchRows))
	}
	start := time.Now()
	deadline := start.Add(span)
	var wg sync.WaitGroup
	for p := range lanes {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				b := s.sources[p].next()
				t0 := time.Now()
				err := s.doInsert(ctx, lanes[p], b)
				s.lat.record(opInsert, time.Since(t0), err)
			}
		}(p)
	}
	wg.Wait()
	s.phaseSeconds = time.Since(start).Seconds()
	return nil
}

// openLoops: an insert lane at a fixed row rate (if any) beside read
// lanes fed by seeded Poisson arrivals.
func (s *session) openLoops(ctx context.Context, span time.Duration) error {
	rng := rand.New(rand.NewSource(s.seed ^ 0x0be1))
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	var loopMu sync.Mutex
	merge := func(ls loopStats) {
		loopMu.Lock()
		defer loopMu.Unlock()
		s.loop.lagMs = append(s.loop.lagMs, ls.lagMs...)
		s.loop.unserved += ls.unserved
		s.attempted.Add(ls.unserved)
		if ls.unserved > 0 {
			s.fail(ls.unserved, "open loop", fmt.Errorf("%d requests still unstarted %v after their last due time", ls.unserved, drainGrace))
		}
		if ls.backlogMax > s.loop.backlogMax {
			s.loop.backlogMax = ls.backlogMax
		}
	}
	if s.wl.insertRate > 0 {
		rm, err := s.routerClient()
		if err != nil {
			return err
		}
		defer rm.close()
		src := newBatchSource(s.w.tl, s.wl.tableList(), s.wl.batchRows)
		s.sources = append(s.sources, src)
		sched := evenSchedule(s.wl.insertRate/float64(s.wl.batchRows), span)
		wg.Add(1)
		go func() {
			defer wg.Done()
			merge(openLoop(ctx, start, sched, 1, func(int) opClass { return opInsert },
				func(ctx context.Context, _, _ int) error { return s.doInsert(ctx, rm, src.next()) }, &s.lat))
		}()
	}
	if s.wl.readRate > 0 {
		lanes := make([]*remote, s.wl.readLanes)
		for i := range lanes {
			rm, err := s.routerClient()
			if err != nil {
				return err
			}
			defer rm.close()
			lanes[i] = rm
		}
		sched := poissonSchedule(rng, s.wl.readRate, span)
		plan := newReadGen(s.seed, s.wl.mix, s.wl.devices()).plan(len(sched))
		wg.Add(1)
		go func() {
			defer wg.Done()
			merge(openLoop(ctx, start, sched, len(lanes), func(i int) opClass { return plan[i].Op },
				func(ctx context.Context, lane, i int) error {
					r := plan[i]
					s.fill(&r)
					return s.doRead(ctx, lanes[lane], r)
				}, &s.lat))
		}()
	}
	wg.Wait()
	s.phaseSeconds = time.Since(start).Seconds()
	return nil
}
