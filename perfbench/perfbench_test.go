package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"littletable/internal/clock"
	"littletable/internal/core"
	"littletable/internal/ltval"
	"littletable/internal/schema"
	"littletable/internal/vfs"
)

// generatedInputs serializes everything the generator hands the system
// for one workload and seed: preloaded rows, insert batches, the read
// plan and the arrival schedule. The time origin is fixed so the bytes
// depend on the seed alone.
func generatedInputs(wl *workload, seed int64) []byte {
	const t0 = 1_700_000_000_000_000
	sc := usageSchema()
	tl := newTimeline(seed, t0, wl.period, wl.history, wl.maxLag)
	var out []byte
	for g := 0; g < numDevices; g += 97 {
		for j := -int64(tl.History); j < 0; j += 7 {
			out = sc.AppendRow(out, tl.row(g, j))
		}
	}
	if wl.batchRows > 0 {
		src := newBatchSource(tl, []int{0, 5, 11}, wl.batchRows)
		for i := 0; i < 6; i++ {
			for _, r := range src.next().rows {
				out = sc.AppendRow(out, r)
			}
		}
	}
	if wl.readRate > 0 {
		for _, r := range newReadGen(seed, wl.mix, wl.devices()).plan(500) {
			for _, x := range []int64{int64(r.Op), int64(r.Device), r.Lookback} {
				out = binary.LittleEndian.AppendUint64(out, uint64(x))
			}
		}
		sched := poissonSchedule(rand.New(rand.NewSource(seed^0x0be1)), wl.readRate, 2*time.Second)
		for _, d := range sched {
			out = binary.LittleEndian.AppendUint64(out, uint64(d))
		}
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	for name, wl := range workloads {
		a, b := generatedInputs(wl, 7), generatedInputs(wl, 7)
		if len(a) == 0 || !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated different inputs on two calls", name)
		}
		if bytes.Equal(a, generatedInputs(wl, 8)) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", name)
		}
	}
}

func TestLookbacksFollowFigure10Exactly(t *testing.T) {
	want := map[int64]int{2 * clock.Hour: 30, clock.Day: 25, 3 * clock.Day: 20, clock.Week: 17,
		30 * clock.Day: 4, 90 * clock.Day: 3, 396 * clock.Day: 1}
	rg := newReadGen(9, mixWeights{1, 1, 1, 1}, numDevices)
	for op := opScan; op <= opAgg; op++ {
		for round := 0; round < 2; round++ {
			got := map[int64]int{}
			for i := 0; i < lookbackStrata; i++ {
				got[rg.draw(op).Lookback]++
			}
			for lb, n := range want {
				if got[lb] != n {
					t.Errorf("%s, round %d: %d lookbacks of %d µs, want %d", op, round, got[lb], lb, n)
				}
			}
		}
	}
}

// The issue's sixteen end-to-end metrics with their units, as the
// report prints them; failed_share is printed beside ok_share, its
// complement, which the result line carries in its place.
var issueEndToEnd = map[string]string{"setup_s": "s", "ingest_rows_per_s": "rows/s",
	"insert_p50_ms": "ms", "insert_p99_ms": "ms", "scan_p50_ms": "ms", "scan_p99_ms": "ms",
	"netscan_p50_ms": "ms", "netscan_p99_ms": "ms", "latest_p50_ms": "ms", "latest_p99_ms": "ms",
	"agg_p50_ms": "ms", "agg_p99_ms": "ms", "write_bytes_per_row": "B/row",
	"disk_bytes_per_row": "B/row", "rss_peak_mb": "MB", "ok_share": "share"}

func TestOutputNamesEveryMetricWithUnit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark twice")
	}
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		var out bytes.Buffer
		res, err := run(workloads["mixed"], 3, 1, traced, t.TempDir(), &out)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("traced=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
		}
		picked, err := spec.pick(res.Metrics, traced)
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		for name, m := range picked {
			if !strings.Contains(out.String(), name+" ") || !strings.Contains(out.String(), " "+m.Unit+" ") {
				t.Errorf("traced=%v: report does not print %s in %s", traced, name, m.Unit)
			}
		}
		if !traced {
			for name, unit := range issueEndToEnd {
				if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
					t.Errorf("end-to-end metric %s: got %+v, want unit %s", name, got, unit)
				}
			}
			if !strings.Contains(out.String(), "failed_share") || !strings.Contains(out.String(), "n=") {
				t.Errorf("report lacks failed_share or sample counts:\n%s", out.String())
			}
		}
	}
}

// newTestSession sets up the mixed workload's cluster for check tests.
func newTestSession(t *testing.T) *session {
	t.Helper()
	s := &session{wl: workloads["mixed"], seed: 5, seconds: 1, dir: t.TempDir()}
	if err := s.setup(1); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.c.close() })
	return s
}

func TestDroppedRowCountsAsFailed(t *testing.T) {
	s := newTestSession(t)
	if err := s.finalCheck(); err != nil {
		t.Fatal(err)
	}
	if s.failed.Load() != 0 {
		t.Fatalf("clean cluster: %d failed checks", s.failed.Load())
	}
	// Drop one stored row behind the benchmark's back.
	g := 3
	tab, err := s.c.coreTable(tableName(deviceTable(g)))
	if err != nil {
		t.Fatal(err)
	}
	q := core.NewQuery()
	q.Lower = []ltval.Value{ltval.NewInt64(deviceNetwork(g)), ltval.NewInt64(deviceID(g))}
	q.Upper = q.Lower
	victim := s.w.tl.ts(g, -5)
	q.MinTs, q.MaxTs = victim, victim
	n, err := tab.DeleteWhere(q, func(schema.Row) bool { return true })
	if err != nil || n != 1 {
		t.Fatalf("DeleteWhere: %d rows, %v", n, err)
	}
	if err := s.finalCheck(); err != nil {
		t.Fatal(err)
	}
	if s.failed.Load() != 1 {
		t.Errorf("dropped row: %d failed checks, want 1 (the table's count)", s.failed.Load())
	}
}

func TestWrongReadCountsAsFailed(t *testing.T) {
	s := newTestSession(t)
	ctx := context.Background()
	rm, err := s.routerClient()
	if err != nil {
		t.Fatal(err)
	}
	defer rm.close()
	for op := opScan; op <= opAgg; op++ {
		r := newReadGen(1, mixWeights{1, 1, 1, 1}, s.wl.devices()).draw(op)
		s.fill(&r)
		got, err := rm.read(ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := s.w.check(r, got); err != nil || !ok {
			t.Fatalf("%s: right answer rejected (%v)", op, err)
		}
		// Drop a row from the answer, or change the latest row.
		if op == opLatest {
			got.row = s.w.tl.row(r.Device, r.Present-2)
		} else {
			got.dig.Rows--
		}
		if ok, err := s.w.check(r, got); err != nil || ok {
			t.Errorf("%s: wrong answer accepted (%v)", op, err)
		}
	}
}

func TestFailedRequestMissesEveryLimit(t *testing.T) {
	var lat latencies
	for i := 0; i < 98; i++ {
		lat.record(opScan, time.Millisecond, nil)
	}
	lat.record(opScan, time.Millisecond, errors.New("refused"))
	lat.record(opScan, 0, errUnserved)
	if p50 := percentile(lat.ms[opScan], 0.5); p50 != 1 {
		t.Errorf("p50 = %v, want 1 ms", p50)
	}
	p99 := percentile(lat.ms[opScan], 0.99)
	if !math.IsInf(p99, 1) {
		t.Errorf("p99 with 2%% failed = %v, want +Inf", p99)
	}
	rep := &report{out: io.Discard, metrics: map[string]metric{}}
	rep.set("scan_p99_ms", "ms", p99, "")
	if v := rep.metrics["scan_p99_ms"].Value; v != math.MaxFloat64 {
		t.Errorf("reported p99 = %v, want the largest float", v)
	}

	// A request still unstarted when the open loop stops is booked too.
	var ol latencies
	sched := schedule{0, time.Millisecond, 2 * time.Millisecond}
	st := openLoop(context.Background(), time.Now(), sched, 1, func(int) opClass { return opLatest },
		func(context.Context, int, int) error {
			time.Sleep(drainGrace + 100*time.Millisecond)
			return nil
		}, &ol)
	if st.unserved != 2 || ol.failures[opLatest] != 2 || len(ol.ms[opLatest]) != 3 {
		t.Errorf("unserved %d, failures %d, samples %d; want 2, 2, 3", st.unserved, ol.failures[opLatest], len(ol.ms[opLatest]))
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "core", Start: 10, End: 60},
		{ID: 3, Parent: 2, Name: "vfs.read", Start: 20, End: 30},
		{ID: 4, Parent: 2, Name: "vfs.read", Start: 25, End: 40}, // overlaps its sibling
		{ID: 5, Parent: 1, Name: "router", Start: 70, End: 120},  // runs past its parent
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 50 - 30, 2: 50 - 20, 3: 10, 4: 15, 5: 50}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
	dir := t.TempDir()
	rec := newRecorder()
	id := rec.begin("a", 1, 0)
	rec.end(rec.begin("b", 1, id))
	rec.end(id)
	path := filepath.Join(dir, "spans.jsonl")
	if err := rec.write(vfs.OsFS{}, path); err != nil {
		t.Fatal(err)
	}
	back, err := readSpans(vfs.OsFS{}, path)
	if err != nil || len(back) != 2 || back[1].Parent != back[0].ID {
		t.Fatalf("spans round trip: %+v, %v", back, err)
	}
}
