package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"littletable/internal/vfs"
	"littletable/internal/wire"
)

// traceSamples is how many requests of each class the traced replay
// sends through each boundary.
const traceSamples = 60

// traceResult is what the traced replay measured.
type traceResult struct {
	spansPath string
	spans     int
	// durUs and selfUs hold span durations and self times by span name.
	durUs, selfUs map[string][]float64
	// Per-request differences between boundaries, µs.
	relayUs, scatterUs, serverUs []float64
	// Wire codec costs on the replayed requests.
	insertBytes, insertRows, encodeNs int64
	rowsBytes, rowsRows, decodeNs     int64
	layers                            layerTimes
}

// traceRun replays a seeded sample of every request class serially.
// Each read goes through the router, then directly to the owning shard
// (for agg: to every shard), then in process on the shard's table, all
// as child spans of one request. Filesystem calls made during the
// in-process call become its children. The layer measurements follow,
// on the state the reads saw; then inserts rotate through the same three
// boundaries.
func (s *session) traceRun(ctx context.Context, cfs *countFS, outDir string) (*traceResult, error) {
	if err := s.c.quiesce(); err != nil {
		return nil, err
	}
	rr, err := s.routerClient()
	if err != nil {
		return nil, err
	}
	defer rr.close()
	direct := make([]*remote, numShards)
	for i := range direct {
		if direct[i], err = newRemote(s.c.addrs[i]); err != nil {
			return nil, err
		}
		defer direct[i].close()
	}
	loc := local{s.c}
	tr := &traceResult{durUs: map[string][]float64{}, selfUs: map[string][]float64{}}
	rg := newReadGen(s.seed^0x7ace, mixWeights{1, 1, 1, 1}, s.wl.devices())
	var plan [numOps][]readReq
	for op := opScan; op <= opAgg; op++ {
		for i := 0; i < traceSamples; i++ {
			r := rg.draw(op)
			s.fill(&r)
			plan[op] = append(plan[op], r)
		}
	}

	rec := newRecorder()
	var req int64
	for op := opScan; op <= opAgg; op++ {
		for _, r := range plan[op] {
			// A first, unmeasured call warms the block cache, so every
			// boundary below sees the same cache state.
			got, err := rr.read(ctx, r)
			s.book(r, got, err)

			req++
			root := rec.begin("request."+op.String(), req, 0)
			id := rec.begin("router."+op.String(), req, root)
			got, err = rr.read(ctx, r)
			viaRouter := us(rec.end(id))
			s.book(r, got, err)

			owner := s.c.shardOf(tableName(readTable(r)))
			var direct0 float64
			if op == opAgg {
				// An AggQuery scatters to every shard; the slowest one
				// bounds what the router could have done.
				for i := range direct {
					id := rec.begin("shard.agg", req, root)
					got, err := direct[i].read(ctx, r)
					d := us(rec.end(id))
					if d > direct0 {
						direct0 = d
					}
					if i == owner {
						s.book(r, got, err)
					}
				}
				tr.scatterUs = append(tr.scatterUs, viaRouter-direct0)
			} else {
				id := rec.begin("shard."+op.String(), req, root)
				got, err := direct[owner].read(ctx, r)
				direct0 = us(rec.end(id))
				s.book(r, got, err)
				if op == opLatest {
					tr.relayUs = append(tr.relayUs, viaRouter-direct0)
				}
			}

			id = rec.begin("core."+op.String(), req, root)
			cfs.attach(rec, id, req)
			got, err = loc.read(ctx, r)
			cfs.attach(nil, 0, 0)
			inProc := us(rec.end(id))
			rec.end(root)
			s.book(r, got, err)
			if op == opLatest {
				tr.serverUs = append(tr.serverUs, direct0-inProc)
			}
			if op == opNetscan {
				if err := tr.captureRows(ctx, rr, r); err != nil {
					return nil, err
				}
			}
		}
	}
	// Check the reads before the inserts below change what they should see.
	if err := s.verifyReads(); err != nil {
		return nil, err
	}
	if tr.layers, err = s.layerBench(ctx, plan[opAgg]); err != nil {
		return nil, err
	}

	names := [3]string{"router.insert", "shard.insert", "core.insert"}
	for i := 0; i < traceSamples; i++ {
		b := s.probeSource().next()
		t0 := time.Now()
		payload := wire.NewInsert(tableName(b.table), usageSchema(), false, b.rows).Encode()
		tr.encodeNs += int64(time.Since(t0))
		tr.insertBytes += int64(len(payload))
		tr.insertRows += int64(len(b.rows))

		req++
		root := rec.begin("request.insert", req, 0)
		var t target = rr
		switch i % 3 {
		case 1:
			t = direct[s.c.shardOf(tableName(b.table))]
		case 2:
			t = loc
		}
		id := rec.begin(names[i%3], req, root)
		if i%3 == 2 {
			cfs.attach(rec, id, req)
		}
		err := s.doInsert(ctx, t, b)
		cfs.attach(nil, 0, 0)
		rec.end(id)
		rec.end(root)
		if err != nil {
			return nil, fmt.Errorf("traced insert: %w", err)
		}
	}

	tr.spansPath = filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.jsonl", s.wl.name, s.seed))
	if err := rec.write(vfs.OsFS{}, tr.spansPath); err != nil {
		return nil, err
	}
	spans, err := readSpans(vfs.OsFS{}, tr.spansPath)
	if err != nil {
		return nil, err
	}
	tr.spans = len(spans)
	self := selfTimes(spans)
	for _, sp := range spans {
		tr.durUs[sp.Name] = append(tr.durUs[sp.Name], float64(sp.End-sp.Start)/1e3)
		tr.selfUs[sp.Name] = append(tr.selfUs[sp.Name], float64(self[sp.ID])/1e3)
	}
	return tr, nil
}

// book records a replayed read for checking, or its failure.
func (s *session) book(r readReq, got outcome, err error) {
	s.attempted.Add(1)
	if err != nil {
		s.fail(1, "replayed "+r.Op.String(), err)
		return
	}
	s.checkMu.Lock()
	s.checks = append(s.checks, check{r: r, got: got})
	s.checkMu.Unlock()
}

// captureRows fetches a netscan's first page as the raw MsgRows payload
// and times decoding it.
func (tr *traceResult) captureRows(ctx context.Context, rr *remote, r readReq) error {
	q := &wire.Query{Table: tableName(readTable(r)), HasLower: true, Lower: keyBounds(r), LowerInc: true,
		HasUpper: true, Upper: keyBounds(r), UpperInc: true, MinTs: r.MinTs, MaxTs: r.MaxTs}
	mt, payload, err := rr.cl.Do(ctx, wire.MsgQuery, q.Encode())
	if err != nil {
		return err
	}
	if mt != wire.MsgRows {
		return fmt.Errorf("netscan: response type %d", mt)
	}
	t0 := time.Now()
	m, err := wire.DecodeRows(payload, usageSchema())
	tr.decodeNs += int64(time.Since(t0))
	if err != nil {
		return err
	}
	tr.rowsBytes += int64(len(payload))
	tr.rowsRows += int64(len(m.Rows))
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// selfTable prints median duration and self time per span name.
func (tr *traceResult) selfTable() string {
	names := make([]string, 0, len(tr.durUs))
	for n := range tr.durUs {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "spans: %d written to %s\n", tr.spans, tr.spansPath)
	fmt.Fprintf(&b, "%-16s %8s %12s %12s\n", "span", "n", "p50 µs", "self p50 µs")
	for _, n := range names {
		fmt.Fprintf(&b, "%-16s %8d %12.1f %12.1f\n", n, len(tr.durUs[n]), median(tr.durUs[n]), median(tr.selfUs[n]))
	}
	return b.String()
}
