package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"littletable/internal/agg"
	"littletable/internal/block"
	"littletable/internal/blockcache"
	"littletable/internal/core"
	"littletable/internal/ltval"
	"littletable/internal/memtable"
	"littletable/internal/schema"
	"littletable/internal/tablet"
	"littletable/internal/vfs"
)

// layerTimes are single-layer costs measured by calling each layer's
// public functions on the run's own rows and files.
type layerTimes struct {
	memtableNsPerRow    float64
	blockEncodeNsPerRow float64
	blockBytesPerRow    float64
	tabletOpenUs        float64
	tabletSeekUs        float64
	tabletScanNsPerRow  float64
	aggFoldNsPerRow     float64
	// workingSet is, per tenant table the workload reads, the bytes the
	// block cache charges for the blocks those reads touch.
	workingSet []int64
}

// layerBench measures the memtable, block, tablet and agg layers.
func (s *session) layerBench(ctx context.Context, aggReads []readReq) (layerTimes, error) {
	var lt layerTimes
	sc := usageSchema()

	// A sample of generated insert batches, as the write path sees them.
	src := newBatchSource(s.w.tl, []int{0, 1, 2, 3}, 256)
	var rows []schema.Row
	for i := 0; i < 20; i++ {
		rows = append(rows, src.next().rows...)
	}
	var memNs []float64
	for rep := 0; rep < 5; rep++ {
		mt := memtable.New(sc)
		now := nowMicros()
		t0 := time.Now()
		for _, r := range rows {
			mt.Insert(now, r)
		}
		memNs = append(memNs, float64(time.Since(t0))/float64(len(rows)))
	}
	lt.memtableNsPerRow = median(memNs)

	// Block encoding of the same rows in key order, as a flush writes them.
	sorted := append([]schema.Row(nil), rows...)
	sort.Slice(sorted, func(i, j int) bool { return sc.CompareKeys(sorted[i], sorted[j]) < 0 })
	var encNs []float64
	var bytes, encoded int
	for rep := 0; rep < 5; rep++ {
		w := block.NewWriter(sc)
		bytes, encoded = 0, 0
		t0 := time.Now()
		for _, r := range sorted {
			w.Append(r)
			if w.SizeBytes() >= block.TargetSize {
				data, _ := w.Finish()
				bytes += len(data)
			}
			encoded++
		}
		if w.Count() > 0 {
			data, _ := w.Finish()
			bytes += len(data)
		}
		encNs = append(encNs, float64(time.Since(t0))/float64(encoded))
	}
	lt.blockEncodeNsPerRow = median(encNs)
	lt.blockBytesPerRow = float64(bytes) / float64(encoded)

	if err := s.tabletBench(&lt); err != nil {
		return lt, err
	}
	for _, t := range s.wl.tableList() {
		n, err := s.workingSet(t)
		if err != nil {
			return lt, err
		}
		lt.workingSet = append(lt.workingSet, n)
	}

	// The agg fold over the rows the replayed AggQueries folded.
	var foldNs float64
	var folded int64
	loc := local{s.c}
	for _, r := range aggReads {
		tab, err := loc.c.coreTable(tableName(r.Table))
		if err != nil {
			return lt, err
		}
		q := core.NewQuery()
		q.MinTs, q.MaxTs = r.MinTs, r.MaxTs
		in, err := tab.QueryAll(q)
		if err != nil {
			return lt, err
		}
		t0 := time.Now()
		acc, err := agg.NewAccumulator(sc, aggSpec)
		if err != nil {
			return lt, err
		}
		for _, row := range in {
			acc.Add(row)
		}
		foldNs += float64(time.Since(t0))
		folded += acc.Rows()
	}
	lt.aggFoldNsPerRow = foldNs / float64(folded)
	return lt, ctx.Err()
}

// tabletFiles lists tenant table t's tablet files, in name order.
func (s *session) tabletFiles(t int) []string {
	var paths []string
	for i := range s.c.servers {
		dir := filepath.Join(s.c.dir, fmt.Sprintf("shard%d", i), tableName(t))
		ents, err := vfs.OsFS{}.ReadDir(dir)
		if err != nil {
			continue // the table lives on another shard
		}
		for _, e := range ents {
			if strings.HasSuffix(e.Name(), ".tab") {
				paths = append(paths, filepath.Join(dir, e.Name()))
			}
		}
	}
	sort.Strings(paths)
	return paths
}

// workingSet returns the bytes the block cache charges (each block's
// uncompressed image) for the blocks the workload's reads of table t
// touch: every device's recent window where the workload reads one,
// else the whole table. It reads the table's tablet files after quiesce
// through a private cache large enough to keep every block it loads.
func (s *session) workingSet(t int) (int64, error) {
	cache := blockcache.New(math.MaxInt64)
	for k, p := range s.tabletFiles(t) {
		tab, err := tablet.OpenFS(vfs.OsFS{}, p)
		if err != nil {
			return 0, err
		}
		tab.SetBlockCache(cache, uint64(k+1))
		err = s.touch(tab, t)
		if cerr := tab.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, err
		}
	}
	return cache.UsedBytes(), nil
}

// touch reads from tab the rows the workload's reads of table t select.
func (s *session) touch(tab *tablet.Tablet, t int) error {
	drain := func(c *tablet.Cursor, stop func(schema.Row) bool) error {
		defer c.Close()
		for c.Next() && !stop(c.Row()) {
		}
		return c.Err()
	}
	if s.wl.window == 0 {
		return drain(tab.Cursor(true), func(schema.Row) bool { return false })
	}
	lo, hi := tab.Timespan()
	for g := t * devicesPerTable; g < (t+1)*devicesPerTable; g++ {
		r := readReq{Op: opScan, Device: g}
		s.fill(&r)
		if r.MaxTs < lo || r.MinTs > hi {
			continue
		}
		c, err := tab.Seek([]ltval.Value{ltval.NewInt64(deviceNetwork(g)), ltval.NewInt64(deviceID(g)), ltval.NewTimestamp(r.MinTs)}, true)
		if err != nil {
			return err
		}
		if err := drain(c, func(row schema.Row) bool { return row[1].Int != deviceID(g) || row[2].Int > r.MaxTs }); err != nil {
			return err
		}
	}
	return nil
}

// tabletBench opens the run's tablet files read-only, without a block
// cache, and times open, seek and a full scan.
func (s *session) tabletBench(lt *layerTimes) error {
	fsys := vfs.OsFS{}
	var paths []string
	for t := 0; t < numTables; t++ {
		paths = append(paths, s.tabletFiles(t)...)
	}
	sort.Strings(paths)
	rng := rand.New(rand.NewSource(s.seed))
	rng.Shuffle(len(paths), func(i, j int) { paths[i], paths[j] = paths[j], paths[i] })
	if len(paths) > 48 {
		paths = paths[:48]
	}
	var openUs, seekUs []float64
	var scanNs float64
	var scanned int64
	for _, p := range paths {
		t0 := time.Now()
		tab, err := tablet.OpenFS(fsys, p)
		if err != nil {
			return err
		}
		openUs = append(openUs, us(time.Since(t0)))
		for k := 0; k < 10; k++ {
			g := rng.Intn(numDevices)
			probe := []ltval.Value{ltval.NewInt64(deviceNetwork(g)), ltval.NewInt64(deviceID(g))}
			t0 := time.Now()
			c, err := tab.Seek(probe, true)
			if err != nil {
				tab.Close()
				return err
			}
			c.Next()
			c.Close()
			seekUs = append(seekUs, us(time.Since(t0)))
		}
		if scanned < 500000 {
			t0 := time.Now()
			c := tab.Cursor(true)
			for c.Next() {
				scanned++
			}
			err := c.Err()
			c.Close()
			scanNs += float64(time.Since(t0))
			if err != nil {
				tab.Close()
				return err
			}
		}
		if err := tab.Close(); err != nil {
			return err
		}
	}
	lt.tabletOpenUs = median(openUs)
	lt.tabletSeekUs = median(seekUs)
	lt.tabletScanNsPerRow = scanNs / float64(scanned)
	return nil
}

// layerMetrics reports the per-layer metrics of the traced run: counter
// ratios over the timed phase, timings from the replay and the layer
// measurements.
func (s *session) layerMetrics(rep *report, ph phase, tr *traceResult, untraced *latencies) {
	before, after, io := ph.before, ph.after, ph.io
	d := diffSnapshot(after.stats, before.stats)
	rows := float64(d.RowsInserted)
	var queries float64
	for op := opScan; op <= opAgg; op++ {
		queries += float64(s.lat.attempts[op])
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	phase := "timed phase"

	var retries, reconnects int64
	for _, rm := range s.remotes {
		retries += rm.cl.Stats().Retries.Load()
		reconnects += rm.cl.Stats().Reconnects.Load()
	}
	rep.set("client.retries", "count", float64(retries), "all load-generator clients")
	rep.set("client.reconnects", "count", float64(reconnects), "all load-generator clients")

	rep.set("router.relay_us_p50", "us", median(tr.relayUs), "latest: via router minus direct to owner")
	rep.set("router.scatter_us_p50", "us", median(tr.scatterUs), "agg: via router minus slowest direct shard")

	rep.set("wire.insert_bytes_per_row", "B/row", ratio(float64(tr.insertBytes), float64(tr.insertRows)), "Insert.Encode on replayed batches")
	rep.set("wire.encode_ns_per_row", "ns/row", ratio(float64(tr.encodeNs), float64(tr.insertRows)), "Insert.Encode on replayed batches")
	rep.set("wire.rows_bytes_per_row", "B/row", ratio(float64(tr.rowsBytes), float64(tr.rowsRows)), "netscan MsgRows payloads")
	rep.set("wire.decode_ns_per_row", "ns/row", ratio(float64(tr.decodeNs), float64(tr.rowsRows)), "DecodeRows on netscan payloads")

	var shed int64
	for _, srv := range s.c.servers {
		shed += srv.Stats().RequestsShed.Load()
	}
	rep.set("server.overhead_us_p50", "us", median(tr.serverUs), "latest: direct to shard minus in process")
	rep.set("server.requests_shed", "count", float64(shed), "all shards")

	rep.set("core.insert_us_per_batch_p50", "us", median(tr.durUs["core.insert"]), "in-process Table.Insert, replay")
	rep.set("core.unique_slow_share", "share", ratio(float64(d.UniqueProbes), rows), phase)
	rep.set("core.unique_bloom_share", "share", ratio(float64(d.UniqueBloom), rows), phase)
	rep.set("core.rows_per_group_commit", "rows", ratio(rows, float64(d.GroupCommits)), phase)
	rep.set("core.backpressure_stalls", "count", float64(d.BackpressureStalls), phase)
	rep.set("core.flushes", "count", float64(d.TabletsFlushed), phase)
	rep.set("core.merges", "count", float64(d.Merges), phase)
	rep.set("core.rows_rewritten_per_row", "rows/row", ratio(float64(d.RowsRewritten), rows), phase)
	rep.set("core.merge_wait_ms", "ms", float64(d.MergeWaitNs)/1e6, phase)
	var tablets int
	_ = s.c.forTables(func(_ int, tab *core.Table) error {
		tablets += tab.DiskTabletCount()
		return nil
	})
	rep.set("core.disk_tablets", "count", float64(tablets), "end of run")

	for op := opScan; op <= opAgg; op++ {
		rep.set("core.query_us_p50."+op.String(), "us", median(tr.durUs["core."+op.String()]), "in process, replay")
	}
	rep.set("core.scan_ratio", "rows/row", ratio(float64(d.RowsScanned), float64(d.RowsReturned)), phase)
	rep.set("core.blocks_read_per_query", "blocks", ratio(float64(d.BlocksRead), float64(d.Queries)), phase)
	rep.set("core.prefetch_hit_share", "share", ratio(float64(d.PrefetchHits), float64(d.BlocksRead)), phase)
	rep.set("core.agg_rows_folded_per_query", "rows", ratio(float64(d.AggRowsFolded), float64(d.AggQueries)), phase)

	rep.set("memtable.insert_ns_per_row", "ns/row", tr.layers.memtableNsPerRow, "memtable.Insert, generated batches")
	rep.set("block.encode_ns_per_row", "ns/row", tr.layers.blockEncodeNsPerRow, "NewWriter/Append/Finish, generated rows")
	rep.set("block.bytes_per_row", "B/row", tr.layers.blockBytesPerRow, "encoded block bytes")
	cum := after.stats
	rep.set("block.columnar_share", "share", ratio(float64(cum.BlocksEncodedColumnar), float64(cum.BlocksEncoded)), "blocks written since start")

	rep.set("tablet.open_us", "us", tr.layers.tabletOpenUs, "tablet.OpenFS, run's files, no cache")
	rep.set("tablet.seek_us", "us", tr.layers.tabletSeekUs, "Seek + first row")
	rep.set("tablet.scan_ns_per_row", "ns/row", tr.layers.tabletScanNsPerRow, "full cursor scan")

	hits, miss := after.hits-before.hits, after.miss-before.miss
	rep.set("blockcache.hit_rate", "share", ratio(float64(hits), float64(hits+miss)), fmt.Sprintf("%d hits, %d misses, %s", hits, miss, phase))
	var wsMax, wsSum int64
	for _, n := range tr.layers.workingSet {
		wsSum += n
		if n > wsMax {
			wsMax = n
		}
	}
	what := "each device's read window at the end of the run"
	if s.wl.window == 0 {
		what = "the whole table"
	}
	rep.set("blockcache.working_set_ratio", "x", float64(wsMax)/float64(blockCacheBytes),
		fmt.Sprintf("largest table's working set (%s: %d bytes as the cache charges them; all %d tables %d) / its %d-byte cache",
			what, wsMax, len(tr.layers.workingSet), wsSum, blockCacheBytes))

	rep.set("agg.fold_ns_per_row", "ns/row", tr.layers.aggFoldNsPerRow, "NewAccumulator + Add, replayed agg rows")

	rep.set("vfs.read_bytes_per_query", "B", ratio(float64(io.ReadBytes), queries), phase)
	rep.set("vfs.read_us_per_query", "us", ratio(float64(io.ReadNs)/1e3, queries), phase)
	rep.set("vfs.write_bytes_per_row", "B/row", ratio(float64(io.WriteBytes), rows), phase)
	rep.set("vfs.write_us_per_row", "us/row", ratio(float64(io.WriteNs)/1e3, rows), phase)
	rep.set("vfs.sync_calls", "count", float64(io.Syncs), phase)

	cpuUs := float64(after.cpu-before.cpu) / 1e3
	alloc := float64(after.alloc - before.alloc)
	rep.set("process.cpu_us_per_row", "us/row", ratio(cpuUs, rows), "all process CPU in the phase / rows inserted")
	rep.set("process.cpu_us_per_query", "us", ratio(cpuUs, queries), "all process CPU in the phase / reads")
	rep.set("process.alloc_bytes_per_row", "B/row", ratio(alloc, rows), "all allocation in the phase / rows inserted")
	rep.set("process.alloc_bytes_per_query", "B", ratio(alloc, queries), "all allocation in the phase / reads")
	rep.set("process.gc_pause_ms", "ms", float64(after.pauseNs-before.pauseNs)/1e6, phase)

	lags := append([]float64(nil), s.loop.lagMs...)
	rep.set("loadgen.lag_p99_ms", "ms", percentile(lags, 0.99), fmt.Sprintf("n=%d open-loop requests", len(lags)))
	rep.set("loadgen.backlog_max", "count", float64(s.loop.backlogMax), fmt.Sprintf("%d unserved", s.loop.unserved))

	var overhead []float64
	for op, in := range s.wl.opsInMix() {
		if !in {
			continue
		}
		traced, plain := median(s.lat.ms[op]), median(untraced.ms[op])
		fmt.Fprintf(rep.out, "  %-8s timed-phase p50 %.4f ms traced, %.4f ms untraced\n", opClass(op), traced, plain)
		if plain > 0 {
			overhead = append(overhead, traced/plain-1)
		}
	}
	rep.set("trace.overhead_share", "share", median(overhead),
		"timed-phase p50 of the traced pass / of the untraced pass - 1 (same workload and seed), median over the mix's classes")
	fmt.Fprint(rep.out, tr.selfTable())
}
