package main

import (
	"context"
	"fmt"
	"math"

	"littletable/internal/agg"
	"littletable/internal/client"
	"littletable/internal/core"
	"littletable/internal/ltval"
	"littletable/internal/schema"
	"littletable/internal/wire"
)

// aggSpec is the dashboard's usage rollup: per day and device, the
// sample count, total bytes sent, peak RSSI and mean client count.
var aggSpec = agg.Spec{
	BucketWidth: 24 * 3600 * 1_000_000,
	GroupCols:   2,
	Aggs: []agg.Agg{
		{Func: agg.Count},
		{Func: agg.Sum, Col: "bytes_sent"},
		{Func: agg.Max, Col: "rssi"},
		{Func: agg.Avg, Col: "clients"},
	},
}

// keyBounds returns the primary-key prefix a read selects.
func keyBounds(r readReq) []ltval.Value {
	switch r.Op {
	case opScan:
		return []ltval.Value{ltval.NewInt64(deviceNetwork(r.Device)), ltval.NewInt64(deviceID(r.Device))}
	case opLatest:
		if r.Prefix == 2 {
			return []ltval.Value{ltval.NewInt64(deviceNetwork(r.Device)), ltval.NewInt64(deviceID(r.Device))}
		}
		return []ltval.Value{ltval.NewInt64(r.Network)}
	default:
		return []ltval.Value{ltval.NewInt64(r.Network)}
	}
}

// readTable is the tenant table a read touches.
func readTable(r readReq) int {
	switch r.Op {
	case opScan:
		return deviceTable(r.Device)
	case opLatest:
		if r.Prefix == 2 {
			return deviceTable(r.Device)
		}
		return networkFirstDevice(r.Network) / devicesPerTable
	case opNetscan:
		return networkFirstDevice(r.Network) / devicesPerTable
	default:
		return r.Table
	}
}

// outcome is what one read returned, reduced to what the checks need.
type outcome struct {
	dig   digest     // scan, netscan: rows; agg: finalized groups
	row   schema.Row // latest
	found bool       // latest
}

// target is one boundary a request can enter the system at: the router,
// a shard directly, or the owning shard's table in process.
type target interface {
	read(ctx context.Context, r readReq) (outcome, error)
	insert(ctx context.Context, b *batch) error
}

// remote sends requests over one client connection (router or shard).
type remote struct {
	cl     *client.Client
	tables [numTables]*client.Table
}

func newRemote(addr string) (*remote, error) {
	cl, err := dial(addr)
	if err != nil {
		return nil, err
	}
	return &remote{cl: cl}, nil
}

func (rm *remote) close() { rm.cl.Close() }

// routerClient opens a load-generator connection to the router with
// every table's schema fetched.
func (s *session) routerClient() (*remote, error) {
	rm, err := newRemote(s.c.raddr)
	if err != nil {
		return nil, err
	}
	if err := rm.openAll(); err != nil {
		rm.close()
		return nil, err
	}
	s.remotes = append(s.remotes, rm)
	return rm, nil
}

// openAll fetches every table's schema up front, so no timed request
// pays for it.
func (rm *remote) openAll() error {
	for t := range rm.tables {
		if _, err := rm.table(t); err != nil {
			return err
		}
	}
	return nil
}

// table returns the handle of tenant table t, fetching its schema on
// first use (a shard holds only the tables placed on it).
func (rm *remote) table(t int) (*client.Table, error) {
	if rm.tables[t] == nil {
		tab, err := rm.cl.OpenTable(tableName(t))
		if err != nil {
			return nil, err
		}
		rm.tables[t] = tab
	}
	return rm.tables[t], nil
}

func (rm *remote) read(ctx context.Context, r readReq) (outcome, error) {
	var out outcome
	if r.Op == opAgg {
		res, err := rm.cl.AggQuery(ctx, aggQuery(r))
		if err != nil {
			return out, err
		}
		out.dig = groupsDigest(res.Groups)
		return out, nil
	}
	tab, err := rm.table(readTable(r))
	if err != nil {
		return out, err
	}
	switch r.Op {
	case opScan, opNetscan:
		q := client.NewQuery()
		q.Lower, q.Upper = keyBounds(r), keyBounds(r)
		q.MinTs, q.MaxTs = r.MinTs, r.MaxTs
		rows := tab.QueryCtx(ctx, q)
		for rows.Next() {
			out.dig.add(rows.Row())
		}
		return out, rows.Err()
	case opLatest:
		row, ok, err := tab.LatestRowCtx(ctx, keyBounds(r))
		out.row, out.found = row, ok
		return out, err
	}
	return out, fmt.Errorf("read: bad op %v", r.Op)
}

func (rm *remote) insert(ctx context.Context, b *batch) error {
	tab, err := rm.table(b.table)
	if err != nil {
		return err
	}
	return tab.InsertNowCtx(ctx, b.rows)
}

func aggQuery(r readReq) *wire.AggQuery {
	return &wire.AggQuery{Prefix: tenantPrefix(r.Table), Spec: aggSpec, MinTs: r.MinTs, MaxTs: r.MaxTs}
}

// local calls the owning shard's table in process, doing what the
// server does for the same request minus the wire and the connection.
type local struct{ c *cluster }

func (l local) read(ctx context.Context, r readReq) (outcome, error) {
	var out outcome
	tab, err := l.c.coreTable(tableName(readTable(r)))
	if err != nil {
		return out, err
	}
	switch r.Op {
	case opScan, opNetscan:
		q := core.NewQuery()
		q.Lower, q.Upper = keyBounds(r), keyBounds(r)
		q.MinTs, q.MaxTs = r.MinTs, r.MaxTs
		it, err := tab.QueryCtx(ctx, q)
		if err != nil {
			return out, err
		}
		for it.Next() {
			out.dig.add(it.Row())
		}
		err = it.Err()
		it.Close()
		return out, err
	case opLatest:
		row, ok, err := tab.LatestRow(keyBounds(r))
		out.row, out.found = row, ok
		return out, err
	case opAgg:
		acc, err := agg.NewAccumulator(tab.Schema(), aggSpec)
		if err != nil {
			return out, err
		}
		q := core.NewQuery()
		q.MinTs, q.MaxTs = r.MinTs, r.MaxTs
		it, err := tab.QueryCtx(ctx, q)
		if err != nil {
			return out, err
		}
		for it.Next() {
			acc.Add(it.Row())
		}
		err = it.Err()
		it.Close()
		out.dig = groupsDigest(acc.Groups())
		return out, err
	}
	return out, fmt.Errorf("read: bad op %v", r.Op)
}

func (l local) insert(_ context.Context, b *batch) error {
	tab, err := l.c.coreTable(tableName(b.table))
	if err != nil {
		return err
	}
	return tab.Insert(b.rows)
}

// ---- the model: what each read must return ----

// world is the benchmark's model of the stored data: the timeline plus,
// per device, how many run-time samples have been acknowledged.
type world struct {
	tl    *timeline
	acked []int64 // per device: samples j < acked[g] are stored
}

// expect computes the outcome a read must produce, given per-device
// presence counts.
func (w *world) expect(r readReq, present func(g int) int64) (outcome, error) {
	var out outcome
	switch r.Op {
	case opScan:
		w.tl.expectDevice(&out.dig, r.Device, present(r.Device), r.MinTs, r.MaxTs)
	case opNetscan:
		first := networkFirstDevice(r.Network)
		for g := first; g < first+devicesPerNetwork; g++ {
			w.tl.expectDevice(&out.dig, g, present(g), r.MinTs, r.MaxTs)
		}
	case opLatest:
		first, n := r.Device, 1
		if r.Prefix == 1 {
			first, n = networkFirstDevice(r.Network), devicesPerNetwork
		}
		best := int64(math.MinInt64)
		for g := first; g < first+n; g++ {
			j := present(g) - 1
			if j < -int64(w.tl.History) {
				continue
			}
			if ts := w.tl.ts(g, j); ts > best {
				best = ts
				out.row, out.found = w.tl.row(g, j), true
			}
		}
	case opAgg:
		acc, err := agg.NewAccumulator(usageSchema(), aggSpec)
		if err != nil {
			return out, err
		}
		first := r.Table * devicesPerTable
		for g := first; g < first+devicesPerTable; g++ {
			lo, hi := w.tl.sampleRange(g, present(g), r.MinTs, r.MaxTs)
			for j := lo; j < hi; j++ {
				acc.Add(w.tl.row(g, j))
			}
		}
		out.dig = groupsDigest(acc.Groups())
	}
	return out, nil
}

// sameOutcome reports whether got matches want for op.
func sameOutcome(op opClass, got, want outcome) bool {
	if op == opLatest {
		if got.found != want.found {
			return false
		}
		return !got.found || rowHash(got.row) == rowHash(want.row)
	}
	return got.dig == want.dig
}

// groupsDigest reduces finalized aggregates to a digest. Every aggregate
// in aggSpec is exact whatever the fold order (integer sums, a max, and
// an average of an integer column), so equal inputs give equal digests.
func groupsDigest(gs []agg.Group) digest {
	var d digest
	for _, o := range agg.Finalize(aggSpec, gs) {
		r := append(schema.Row{ltval.NewInt64(o.Bucket)}, o.Key...)
		d.add(append(r, o.Values...))
	}
	return d
}
