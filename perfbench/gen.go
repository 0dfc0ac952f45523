package main

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"

	"littletable/internal/ltval"
	"littletable/internal/prodsim"
	"littletable/internal/schema"
)

// The dataset is Meraki-like: each tenant owns one usage table keyed by
// (network, device, ts), and every device reports one sample per period.
// Every value in a row is a pure function of (seed, device, sample
// index), so the benchmark can recompute the exact rows any query must
// return — its model of the data — without storing them.
const (
	numTables         = 12
	networksPerTable  = 4
	devicesPerNetwork = 16
	devicesPerTable   = networksPerTable * devicesPerNetwork
	numDevices        = numTables * devicesPerTable
)

var statuses = []string{"online", "online", "online", "online", "online",
	"alerting", "offline", "dormant", "rebooting", "upgrading"}

// usageSchema is the tenant table: a composite key, four int64 byte and
// packet counters, an int32 client count, a double RSSI and a
// low-cardinality status string (about 100 bytes per row in memory).
func usageSchema() *schema.Schema {
	return schema.MustNew([]schema.Column{
		{Name: "network", Type: ltval.Int64},
		{Name: "device", Type: ltval.Int64},
		{Name: "ts", Type: ltval.Timestamp},
		{Name: "bytes_sent", Type: ltval.Int64},
		{Name: "bytes_recv", Type: ltval.Int64},
		{Name: "pkts_sent", Type: ltval.Int64},
		{Name: "pkts_recv", Type: ltval.Int64},
		{Name: "clients", Type: ltval.Int32},
		{Name: "rssi", Type: ltval.Double},
		{Name: "status", Type: ltval.String},
	}, []string{"network", "device", "ts"})
}

func tableName(t int) string { return fmt.Sprintf("t%02d_usage", t) }

// tenantPrefix is the AggQuery table-name prefix selecting tenant t's
// tables (the router's tenant is the name up to the first '_').
func tenantPrefix(t int) string { return fmt.Sprintf("t%02d_", t) }

// Device g lives in table g/devicesPerTable; its network and device ids
// are globally unique so a key prefix never spans tables.
func deviceTable(g int) int     { return g / devicesPerTable }
func deviceNetwork(g int) int64 { return int64(g / devicesPerNetwork) }
func deviceID(g int) int64      { return int64(g) }

// networkFirstDevice returns the first device index of global network n.
func networkFirstDevice(n int64) int { return int(n) * devicesPerNetwork }

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// timeline places every device's samples: sample j of device g has
// timestamp T0 + j*Period + phase[g]. Samples j < 0 are the preloaded
// history (History of them per device); j >= 0 are inserted during the
// run, in order per device. Phases are distinct within a table, so no
// two devices of one network share a timestamp and "latest row" has one
// right answer.
type timeline struct {
	Seed    int64
	T0      int64 // µs
	Period  int64 // µs between one device's samples
	History int   // preloaded samples per device
	phase   []int64
	lag     []int64 // arrival delay per device, µs (run inserts only)
}

// lateShare is the share of devices whose reports arrive late, by up to
// the workload's maxLag; the rest report on time.
const lateShare = 0.1

func newTimeline(seed, t0, period int64, history int, maxLag int64) *timeline {
	tl := &timeline{Seed: seed, T0: t0, Period: period, History: history,
		phase: make([]int64, numDevices), lag: make([]int64, numDevices)}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	step := period / devicesPerTable
	for t := 0; t < numTables; t++ {
		perm := rng.Perm(devicesPerTable)
		for i, p := range perm {
			g := t*devicesPerTable + i
			tl.phase[g] = int64(p) * step
			late, lag := rng.Float64() < lateShare, rng.Int63n(maxLag+1)
			if late {
				tl.lag[g] = lag
			}
		}
	}
	return tl
}

func (tl *timeline) ts(g int, j int64) int64 { return tl.T0 + j*tl.Period + tl.phase[g] }

// sampleRange returns the sample indexes [lo, hi) of device g whose
// timestamps fall in [minTs, maxTs], limited to samples that exist:
// j in [-History, present).
func (tl *timeline) sampleRange(g int, present, minTs, maxTs int64) (int64, int64) {
	lo := ceilDiv(minTs-tl.T0-tl.phase[g], tl.Period)
	hi := floorDiv(maxTs-tl.T0-tl.phase[g], tl.Period) + 1
	if lo < -int64(tl.History) {
		lo = -int64(tl.History)
	}
	if hi > present {
		hi = present
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func ceilDiv(a, b int64) int64 { return -floorDiv(-a, b) }

// row builds sample j of device g.
func (tl *timeline) row(g int, j int64) schema.Row {
	h := splitmix(uint64(tl.Seed)*0x100000001b3 ^ uint64(g)<<40 ^ uint64(j))
	h2 := splitmix(h)
	h3 := splitmix(h2)
	return schema.Row{
		ltval.NewInt64(deviceNetwork(g)),
		ltval.NewInt64(deviceID(g)),
		ltval.NewTimestamp(tl.ts(g, j)),
		ltval.NewInt64(int64(h % 5_000_000)),
		ltval.NewInt64(int64((h >> 23) % 50_000_000)),
		ltval.NewInt64(int64(h2 % 40_000)),
		ltval.NewInt64(int64((h2 >> 20) % 400_000)),
		ltval.NewInt32(int32(h3 % 200)),
		ltval.NewDouble(-90 + float64((h3>>10)%121)*0.5),
		ltval.NewString(statuses[(h3>>20)%uint64(len(statuses))]),
	}
}

// rowHash is the per-row checksum term; a result's checksum is the sum
// of its rows' hashes, so it does not depend on row order.
func rowHash(r schema.Row) uint64 {
	var h uint64 = 14695981039346656037
	for _, v := range r {
		var x uint64
		switch v.Type {
		case ltval.Double:
			x = math.Float64bits(v.Float)
		case ltval.String, ltval.Blob:
			x = 14695981039346656037 // FNV-1a
			for _, c := range v.Bytes {
				x = (x ^ uint64(c)) * 1099511628211
			}
		default:
			x = uint64(v.Int)
		}
		h = splitmix(h ^ x)
	}
	return h
}

// digest is a result's row count and order-independent checksum.
type digest struct {
	Rows int64
	Sum  uint64
}

func (d *digest) add(r schema.Row) {
	d.Rows++
	d.Sum += rowHash(r)
}

// expectDevice folds device g's samples inside [minTs, maxTs] into d.
func (tl *timeline) expectDevice(d *digest, g int, present, minTs, maxTs int64) {
	lo, hi := tl.sampleRange(g, present, minTs, maxTs)
	for j := lo; j < hi; j++ {
		d.add(tl.row(g, j))
	}
}

// ---- insert streams ----

// insertStream yields one table's run-time samples in arrival order:
// sample j of device g arrives at ts(g, j) + lag[g]. Devices with a lag
// report late, so a batch interleaves timestamps behind the table's
// newest — the rows the newest-timestamp uniqueness fast path cannot
// take.
type insertStream struct {
	tl    *timeline
	table int
	h     arrivalHeap
}

type arrival struct {
	at int64
	g  int
	j  int64
}

type arrivalHeap []arrival

func (h arrivalHeap) Len() int { return len(h) }
func (h arrivalHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].g < h[j].g
}
func (h arrivalHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *arrivalHeap) Push(x interface{}) { *h = append(*h, x.(arrival)) }
func (h *arrivalHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func newInsertStream(tl *timeline, table int) *insertStream {
	s := &insertStream{tl: tl, table: table}
	for i := 0; i < devicesPerTable; i++ {
		g := table*devicesPerTable + i
		s.h = append(s.h, arrival{at: tl.ts(g, 0) + tl.lag[g], g: g, j: 0})
	}
	heap.Init(&s.h)
	return s
}

// sample is one generated insert: device g's sample j.
type sample struct {
	g int
	j int64
}

// next returns the next n samples in arrival order.
func (s *insertStream) next(n int) []sample {
	out := make([]sample, n)
	for i := range out {
		a := s.h[0]
		out[i] = sample{g: a.g, j: a.j}
		s.h[0] = arrival{at: s.tl.ts(a.g, a.j+1) + s.tl.lag[a.g], g: a.g, j: a.j + 1}
		heap.Fix(&s.h, 0)
	}
	return out
}

// batch is one InsertNow request: rows for one table.
type batch struct {
	table   int
	samples []sample
	rows    []schema.Row
}

func (tl *timeline) makeBatch(table int, ss []sample) *batch {
	b := &batch{table: table, samples: ss, rows: make([]schema.Row, len(ss))}
	for i, s := range ss {
		b.rows[i] = tl.row(s.g, s.j)
	}
	return b
}

// batchSource deals batches round-robin over a fixed table list, so a
// poller's sequence of batches depends only on the seed.
type batchSource struct {
	tl      *timeline
	streams []*insertStream
	size    int
	i       int
}

func newBatchSource(tl *timeline, tables []int, size int) *batchSource {
	bs := &batchSource{tl: tl, size: size}
	for _, t := range tables {
		bs.streams = append(bs.streams, newInsertStream(tl, t))
	}
	return bs
}

func (bs *batchSource) next() *batch {
	s := bs.streams[bs.i%len(bs.streams)]
	bs.i++
	return bs.tl.makeBatch(s.table, s.next(bs.size))
}

// ---- read requests ----

type opClass int

const (
	opScan opClass = iota
	opNetscan
	opLatest
	opAgg
	opInsert
	numOps
)

var opNames = [numOps]string{"scan", "netscan", "latest", "agg", "insert"}

func (c opClass) String() string { return opNames[c] }

// readReq is one generated read. For scan, netscan and agg the window is
// [MinTs, MaxTs]; latest ignores it.
type readReq struct {
	Op           opClass
	Device       int   // scan, latest (device prefix)
	Network      int64 // netscan, latest (network prefix)
	Table        int   // agg
	Prefix       int   // latest: 1 = network prefix, 2 = device prefix
	Lookback     int64 // dashboard windows: µs back from the end of the history
	MinTs, MaxTs int64
	// Present is the device's acknowledged sample count when the read
	// was issued; SentAfter its sent sample count when the answer came
	// back. Rows between the two may or may not be visible yet.
	Present, SentAfter int64
}

// mixWeights is a read mix; the weights need not sum to one.
type mixWeights [4]float64

// readGen draws reads from one seeded stream: a class by weight, a
// Zipf-skewed device (a few devices are far more popular, as on a
// dashboard), and a window.
type readGen struct {
	rng     *rand.Rand
	zipf    *rand.Zipf
	tables  int
	perms   [][]int // per table: popularity rank within the table -> device
	weights mixWeights
	total   float64
	strata  [numOps][]float64 // per class: stratified uniforms left to deal
}

// newReadGen draws reads over the first devices devices (whole tables).
func newReadGen(seed int64, w mixWeights, devices int) *readGen {
	rng := rand.New(rand.NewSource(seed ^ 0x7ead))
	// s=1.1, v=4: the most popular device draws about 5% of requests and
	// the top tenth about 40%, without one device deciding a run's cost.
	rg := &readGen{rng: rng, zipf: rand.NewZipf(rng, 1.1, 4, uint64(devices-1)),
		tables: devices / devicesPerTable, weights: w}
	for t := 0; t < rg.tables; t++ {
		rg.perms = append(rg.perms, rng.Perm(devicesPerTable))
	}
	for _, x := range w {
		rg.total += x
	}
	return rg
}

func (rg *readGen) class() opClass {
	u := rg.rng.Float64() * rg.total
	for i, x := range rg.weights {
		if u < x {
			return opClass(i)
		}
		u -= x
	}
	return opAgg
}

// device deals popularity ranks round-robin over the tables, so every
// seed loads the tables (and the shards) alike; the seed picks which of
// a table's devices are popular.
func (rg *readGen) device() int {
	rank := int(rg.zipf.Uint64())
	t := rank % rg.tables
	return t*devicesPerTable + rg.perms[t][rank/rg.tables]
}

// plan draws n reads: class, device and lookback. Windows that depend on
// what has been stored are filled in when each read is issued.
func (rg *readGen) plan(n int) []readReq {
	out := make([]readReq, n)
	for i := range out {
		out[i] = rg.draw(rg.class())
	}
	return out
}

func (rg *readGen) draw(op opClass) readReq {
	g := rg.device()
	return readReq{Op: op, Device: g, Network: deviceNetwork(g), Table: deviceTable(g),
		Prefix: 1, Lookback: rg.lookback(op)}
}

// lookbackStrata is how many draws of a class cover [0, 1) once.
const lookbackStrata = 100

// lookback draws a Figure 10 lookback (prodsim.LookbackSample) for a
// read of class op from a stratified uniform: every lookbackStrata draws
// of a class take one value from each stratum of [0, 1), in seeded
// order. So every run gets the figure's shares of short and long
// lookbacks, and no run's cost hinges on how many year-long reads it
// happened to draw.
func (rg *readGen) lookback(op opClass) int64 {
	st := rg.strata[op]
	if len(st) == 0 {
		st = make([]float64, lookbackStrata)
		for i := range st {
			st[i] = math.Min((float64(i)+rg.rng.Float64())/lookbackStrata, 1-1e-9)
		}
		rg.rng.Shuffle(len(st), func(i, j int) { st[i], st[j] = st[j], st[i] })
	}
	u := st[len(st)-1]
	rg.strata[op] = st[:len(st)-1]
	return prodsim.LookbackSample(rand.New(uniformSource(u)))
}

// uniformSource is a rand.Source whose Rand.Float64 returns the value
// itself, which must lie in [0, 1).
type uniformSource float64

func (u uniformSource) Int63() int64 { return int64(float64(u) * (1 << 63)) }
func (uniformSource) Seed(int64)     {}
