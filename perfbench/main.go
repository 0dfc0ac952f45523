// Command perfbench is LittleTable's end-to-end benchmark. It starts a
// router and three shard servers on loopback TCP inside one process,
// drives one named workload (ingest, dashboard or mixed) with inputs
// generated from -seed, checks every answer against its model of the
// data, and prints each metric with its unit. The last line of standard
// output is one JSON object: end-to-end metrics with -trace 0, per-layer
// metrics (and a spans file) with -trace 1.
//
// Run it through run.py, which builds it:
//
//	python3 perfbench/run.py --workload dashboard --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"syscall"
	"time"

	"littletable/internal/core"
	"littletable/internal/vfs"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: ingest, dashboard or mixed")
		seed    = flag.Int64("seed", 1, "seed for every generated input")
		seconds = flag.Float64("seconds", 10, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		root    = flag.String("root", ".", "checkout root; scratch data goes under its .bench_build")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload ingest|dashboard|mixed, -seconds > 0, -trace 0|1")
		os.Exit(2)
	}
	spec, err := readSpec(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(wl, *seed, *seconds, *trace == 1, *root, os.Stdout)
	if err == nil {
		res.Metrics, err = spec.pick(res.Metrics, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// benchmarkSpec is the part of BENCHMARK.json that says which metrics
// the result line carries: the gated end-to-end metrics, or with -trace 1
// the per-layer ones. The report prints every metric either way.
type benchmarkSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	f, err := vfs.OsFS{}.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.NewDecoder(io.NewSectionReader(f, 0, info.Size())).Decode(&spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// pick returns the metrics the spec lists, failing if one is missing or
// carries another unit.
func (spec *benchmarkSpec) pick(all map[string]metric, traced bool) (map[string]metric, error) {
	want := spec.EndToEnd
	if traced {
		want = spec.PerLayer
	}
	out := make(map[string]metric, len(want))
	for _, m := range want {
		got, ok := all[m.Name]
		if !ok || got.Unit != m.Unit {
			return nil, fmt.Errorf("metric %s (%s) not measured: have %+v", m.Name, m.Unit, got)
		}
		out[m.Name] = got
	}
	return out, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates metrics and prints the human-readable table.
type report struct {
	out     io.Writer
	metrics map[string]metric
}

func (r *report) set(name, unit string, v float64, note string) {
	switch {
	case math.IsNaN(v):
		v = 0 // nothing to measure it on
	case math.IsInf(v, 1):
		// A percentile that lands on a failed request, which is booked as
		// infinitely slow; JSON has no infinity.
		v = math.MaxFloat64
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(r.out, "%-34s %14.4f %-10s %s\n", name, v, unit, note)
}

// usage is the process-level counters a phase's cost is read from.
type usage struct {
	cpu        time.Duration
	alloc      uint64
	pauseNs    uint64
	stats      core.StatsSnapshot
	hits, miss int64
}

func takeUsage(c *cluster) usage {
	var u usage
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.alloc, u.pauseNs = ms.TotalAlloc, ms.PauseTotalNs
	u.stats, u.hits, u.miss = c.statsSum()
	return u
}

// rssMB reads the process's current resident set from /proc.
func rssMB() float64 {
	f, err := vfs.OsFS{}.Open("/proc/self/statm")
	if err != nil {
		return 0
	}
	defer f.Close()
	buf := make([]byte, 128)
	n, _ := f.ReadAt(buf, 0) // a short read still holds both fields
	var size, resident int64
	if _, err := fmt.Sscan(string(buf[:n]), &size, &resident); err != nil {
		return 0
	}
	return float64(resident*int64(os.Getpagesize())) / (1 << 20)
}

// sampleRSS records the peak resident set every 50 ms until stop is
// closed, then sends it on the returned channel.
func sampleRSS(stop <-chan struct{}) <-chan float64 {
	peak := make(chan float64, 1)
	go func() {
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		max := rssMB()
		for {
			select {
			case <-stop:
				if v := rssMB(); v > max {
					max = v
				}
				peak <- max
				return
			case <-tick.C:
				if v := rssMB(); v > max {
					max = v
				}
			}
		}
	}()
	return peak
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// run executes one invocation and returns its result line.
func run(wl *workload, seed int64, seconds float64, traced bool, root string, out io.Writer) (*result, error) {
	dir := filepath.Join(root, ".bench_build", "perfbench", fmt.Sprintf("run-%d", os.Getpid()))
	fsys := vfs.OsFS{}
	if err := fsys.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, err
	}
	defer fsys.RemoveAll(dir) //nolint:errcheck // scratch data under the ignored build directory

	rep := &report{out: out, metrics: map[string]metric{}}
	var (
		res *result
		err error
	)
	if traced {
		res, err = runTraced(wl, seed, seconds, dir, filepath.Join(root, ".bench_build", "perfbench"), rep)
	} else {
		res, err = runUntraced(wl, seed, seconds, dir, rep)
	}
	if err != nil {
		return nil, err
	}
	res.Metrics = rep.metrics
	res.Correct = res.Failed == 0
	fmt.Fprintf(out, "checks: %d attempted, %d failed\n", res.Attempted, res.Failed)
	return res, nil
}

// runUntraced measures the end-to-end metrics.
func runUntraced(wl *workload, seed int64, seconds float64, dir string, rep *report) (*result, error) {
	s := &session{wl: wl, seed: seed, seconds: seconds, dir: dir}
	if err := s.start(setupRepeats, rep.out); err != nil {
		return nil, err
	}
	defer s.c.close()

	// Read classes outside the workload's mix are measured by a serial
	// probe on the quiesced set-up state, before the timed phase changes
	// it, so every workload reports every metric. The insert probe, which
	// gives ingest_rows_per_s, runs after the timed phase, since the
	// dashboard phase must see no writes.
	ctx := context.Background()
	probe := &latencies{}
	if err := s.runProbe(ctx, probe, false); err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	if err := s.verifyReads(); err != nil {
		return nil, err
	}
	ph, err := s.timed(ctx, nil)
	if err != nil {
		return nil, err
	}
	if err := s.runProbe(ctx, probe, true); err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	if err := s.finalCheck(); err != nil {
		return nil, fmt.Errorf("final check: %w", err)
	}
	s.endToEnd(rep, ph.before, ph.after, probe)
	return &result{Attempted: s.attempted.Load(), Failed: s.failed.Load()}, nil
}

// runTraced measures the per-layer metrics. It runs the workload twice
// with the same seed, on fresh clusters: first untraced, then with the
// counting filesystem installed, followed by the traced replay. The
// untraced pass is the reference for the tracing overhead.
func runTraced(wl *workload, seed int64, seconds float64, dir, spansDir string, rep *report) (*result, error) {
	ctx := context.Background()
	base := &session{wl: wl, seed: seed, seconds: seconds, dir: filepath.Join(dir, "untraced")}
	if err := base.start(1, rep.out); err != nil {
		return nil, err
	}
	_, err := base.timed(ctx, nil)
	if err == nil {
		err = base.finalCheck()
	}
	if cerr := base.c.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}

	cfs := newCountFS(vfs.OsFS{})
	s := &session{wl: wl, seed: seed, seconds: seconds, dir: filepath.Join(dir, "traced"), fsys: cfs}
	if err := s.start(1, rep.out); err != nil {
		return nil, err
	}
	defer s.c.close()
	ph, err := s.timed(ctx, cfs)
	if err != nil {
		return nil, err
	}
	tr, err := s.traceRun(ctx, cfs, spansDir)
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	if err := s.finalCheck(); err != nil {
		return nil, fmt.Errorf("final check: %w", err)
	}
	s.layerMetrics(rep, ph, tr, &base.lat)
	return &result{
		Attempted: base.attempted.Load() + s.attempted.Load(),
		Failed:    base.failed.Load() + s.failed.Load(),
	}, nil
}

// start sets the session's cluster up (repeats times; the last one is
// kept) and collects the garbage the discarded set-ups left, so every
// measurement starts from the same heap.
func (s *session) start(repeats int, out io.Writer) error {
	if err := s.setup(repeats); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	runtime.GC()
	debug.FreeOSMemory()
	fmt.Fprintf(out, "workload %s seed %d: setup %.3fs (median of %d), dataset %d bytes on disk, block cache %d bytes per table\n",
		s.wl.name, s.seed, median(s.setupSeconds), repeats, s.diskBytes(), blockCacheBytes)
	return nil
}

// phase is what the counters read across the timed phase.
type phase struct {
	before, after usage
	io            ioCounts // filesystem calls; zero without a counting FS
}

// timed runs the timed phase between two counter readings, sampling the
// resident set, and then verifies the phase's reads. The phase starts
// from a collected heap, whatever the probes before it allocated.
func (s *session) timed(ctx context.Context, cfs *countFS) (phase, error) {
	runtime.GC()
	debug.FreeOSMemory()
	var ph phase
	var ioBefore ioCounts
	if cfs != nil {
		ioBefore = cfs.counts()
	}
	ph.before = takeUsage(s.c)
	stopRSS := make(chan struct{})
	rssPeak := sampleRSS(stopRSS)
	err := s.runPhase(ctx)
	close(stopRSS)
	s.rssPeak = <-rssPeak
	if err != nil {
		return ph, fmt.Errorf("timed phase: %w", err)
	}
	ph.after = takeUsage(s.c)
	if cfs != nil {
		ph.io = cfs.counts().sub(ioBefore)
	}
	return ph, s.verifyReads()
}

func (s *session) diskBytes() int64 {
	var n int64
	_ = s.c.forTables(func(_ int, tab *core.Table) error {
		n += tab.DiskBytes()
		return nil
	})
	return n
}

// probeSamples is how many requests of each class the serial probe
// issues: 1,000 of each read class that touches one device or network,
// 500 of agg, which folds a whole tenant, and 1,000 insert batches.
var probeSamples = [numOps]int{opScan: 1000, opNetscan: 1000, opLatest: 1000, opAgg: 500, opInsert: 1000}

// runProbe issues, one at a time through the router, probeSamples
// requests of every read class outside the workload's mix, or with
// inserts set probeSamples insert batches, recording their latencies in
// lat.
func (s *session) runProbe(ctx context.Context, lat *latencies, inserts bool) error {
	if inserts && s.wl.closed {
		return nil // the closed loop's own throughput is its capacity
	}
	in := s.wl.opsInMix()
	in[opInsert] = false // open-loop inserts run at a set rate: probe capacity
	rm, err := s.routerClient()
	if err != nil {
		return err
	}
	defer rm.close()
	rg := newReadGen(s.seed^0x9b0be, mixWeights{1, 1, 1, 1}, s.wl.devices())
	for op := opClass(0); op < numOps; op++ {
		if in[op] || (op == opInsert) != inserts {
			continue
		}
		for i := 0; i < probeSamples[op]; i++ {
			t0 := time.Now()
			var err error
			if op == opInsert {
				err = s.doInsert(ctx, rm, s.probeSource().next())
			} else {
				r := rg.draw(op)
				s.fill(&r)
				err = s.doRead(ctx, rm, r)
			}
			lat.record(op, time.Since(t0), err)
		}
	}
	return nil
}

// probeSource continues the run's insert streams (so probe rows never
// collide with run rows), or starts them when the timed phase sent none.
func (s *session) probeSource() *batchSource {
	if len(s.sources) == 0 {
		s.sources = append(s.sources, newBatchSource(s.w.tl, s.wl.tableList(), s.probeBatchRows()))
	}
	s.probeTurn++
	return s.sources[s.probeTurn%len(s.sources)]
}

// verifyReads checks the reads recorded since the last call against the
// model. It runs after each phase, before the next one inserts rows the
// earlier reads could not have seen.
func (s *session) verifyReads() error {
	for _, ck := range s.checks {
		ok, err := s.w.check(ck.r, ck.got)
		if err != nil {
			return err
		}
		if !ok {
			if s.failed.Add(1) <= 5 {
				fmt.Fprintf(os.Stderr, "perfbench: wrong answer to %s %+v\n", ck.r.Op, ck.r)
			}
		}
	}
	s.checks = nil
	return nil
}

// finalCheck verifies the outstanding reads, then that each table holds
// exactly the preloaded plus acknowledged rows.
func (s *session) finalCheck() error {
	if err := s.verifyReads(); err != nil {
		return err
	}
	return s.c.forTables(func(t int, tab *core.Table) error {
		if err := tab.FlushAll(); err != nil {
			return err
		}
		var got, want digest
		it, err := tab.Query(core.NewQuery())
		if err != nil {
			return err
		}
		for it.Next() {
			got.add(it.Row())
		}
		err = it.Err()
		it.Close()
		if err != nil {
			return err
		}
		for g := t * devicesPerTable; g < (t+1)*devicesPerTable; g++ {
			for j := -int64(s.w.tl.History); j < atomic.LoadInt64(&s.w.acked[g]); j++ {
				want.add(s.w.tl.row(g, j))
			}
		}
		s.attempted.Add(1)
		if got != want {
			s.failed.Add(1)
			fmt.Fprintf(os.Stderr, "perfbench: %s holds %d rows (checksum %x), want %d (%x)\n",
				tableName(t), got.Rows, got.Sum, want.Rows, want.Sum)
		}
		return nil
	})
}

// check verifies one read against the model.
func (w *world) check(r readReq, got outcome) (bool, error) {
	present := func(g int) int64 { return atomic.LoadInt64(&w.acked[g]) }
	if r.Op == opScan || (r.Op == opLatest && r.Prefix == 2) {
		present = func(int) int64 { return r.Present }
	}
	if r.Op == opLatest && r.Prefix == 2 && r.SentAfter > r.Present {
		// Rows of the batch in flight when the read ran may be visible:
		// any sample from the last acked one to the last sent one is right.
		if !got.found {
			return false, nil
		}
		off := got.row[2].Int - w.tl.T0 - w.tl.phase[r.Device]
		j := floorDiv(off, w.tl.Period)
		if off != j*w.tl.Period || j < r.Present-1 || j >= r.SentAfter {
			return false, nil
		}
		return rowHash(got.row) == rowHash(w.tl.row(r.Device, j)), nil
	}
	want, err := w.expect(r, present)
	if err != nil {
		return false, err
	}
	return sameOutcome(r.Op, got, want), nil
}

// latencyPair reports a class's p50 and p99, from the timed phase when
// the class is in the mix and from the probe otherwise.
func (s *session) latencyPair(rep *report, op opClass, probe *latencies) {
	src, where := &s.lat, "timed phase"
	if !s.wl.opsInMix()[op] {
		src, where = probe, "serial probe"
	}
	xs := src.ms[op]
	note := fmt.Sprintf("n=%d (%s, %d failed)", len(xs), where, src.failures[op])
	rep.set(op.String()+"_p50_ms", "ms", percentile(xs, 0.50), note)
	rep.set(op.String()+"_p99_ms", "ms", percentile(xs, 0.99), note)
}

// endToEnd reports the user-visible metrics of the untraced run.
func (s *session) endToEnd(rep *report, before, after usage, probe *latencies) {
	d := diffSnapshot(after.stats, before.stats)
	rep.set("setup_s", "s", median(s.setupSeconds), fmt.Sprintf("n=%d set-ups", len(s.setupSeconds)))
	if s.wl.closed {
		rep.set("ingest_rows_per_s", "rows/s", float64(s.ackedRows.Load())/s.phaseSeconds, "acked rows, timed phase")
	} else {
		// An open-loop insert lane runs at its set rate, so capacity
		// comes from the serial probe: acked rows over the summed time
		// of its batches on one connection.
		var secs float64
		for _, ms := range probe.ms[opInsert] {
			secs += ms / 1000
		}
		acked := len(probe.ms[opInsert]) - int(probe.failures[opInsert])
		rep.set("ingest_rows_per_s", "rows/s", float64(acked*s.probeBatchRows())/secs,
			fmt.Sprintf("serial probe after the timed phase, %d batches of %d rows, one connection", acked, s.probeBatchRows()))
	}
	if s.wl.insertRate > 0 {
		fmt.Fprintf(rep.out, "%-34s %14.4f %-10s %s\n", "(insert lane rate)", float64(s.ackedRows.Load())/s.phaseSeconds, "rows/s",
			"acked rows over the timed phase: the lane's set rate while all goes well")
	}
	s.latencyPair(rep, opInsert, probe)
	for _, op := range []opClass{opScan, opNetscan, opLatest, opAgg} {
		s.latencyPair(rep, op, probe)
	}
	if d.RowsInserted > 0 {
		rep.set("write_bytes_per_row", "B/row", float64(d.BytesFlushed+d.BytesMerged)/float64(d.RowsInserted), "flush + merge, timed phase")
	} else {
		st := s.setupStats
		rep.set("write_bytes_per_row", "B/row", float64(st.BytesFlushed+st.BytesMerged)/float64(st.RowsInserted), "flush + merge, preload")
	}
	var rows int64
	for g := range s.w.acked {
		rows += atomic.LoadInt64(&s.w.acked[g]) + int64(s.w.tl.History)
	}
	rep.set("disk_bytes_per_row", "B/row", float64(s.diskBytes())/float64(rows), fmt.Sprintf("%d live rows, after final flush", rows))
	rep.set("rss_peak_mb", "MB", s.rssPeak, fmt.Sprintf("peak resident set during the timed phase, sampled every 50 ms; process lifetime peak %.1f", peakRSSMB()))
	att, fail := s.attempted.Load(), s.failed.Load()
	rep.set("ok_share", "share", 1-float64(fail)/float64(att), fmt.Sprintf("1 - failed_share; failed_share = %d/%d = %.6f", fail, att, float64(fail)/float64(att)))
}

func (s *session) probeBatchRows() int {
	if s.wl.batchRows > 0 {
		return s.wl.batchRows
	}
	return 256
}
