package core

import (
	"context"
	"path/filepath"
	"testing"

	"littletable/internal/schema"
	"littletable/internal/tablet"
)

// reusingSource hands out every row of its source in one buffer, as a
// tablet cursor does, so a merge that holds a row past the source's next
// step sees it overwritten.
type reusingSource struct {
	rowSource
	buf schema.Row
}

func (r *reusingSource) next() (schema.Row, bool) {
	row, ok := r.rowSource.next()
	if !ok {
		return nil, false
	}
	r.buf = append(r.buf[:0], row...)
	return r.buf, true
}

// TestMergeReusedRowBuffers runs the shared k-way merge over two tablets
// and a memtable snapshot that all hold one key, with sources that reuse
// their row buffers, in both directions. The shared key sits between
// distinct keys of every source, so a merge that stepped a source before
// using its row, or compared duplicates against a row it no longer owned,
// would drop, repeat or misorder rows. The shared key is also removed by a
// time bound and by TTL: its older copies must stay suppressed even though
// the newest copy is never returned.
func TestMergeReusedRowBuffers(t *testing.T) {
	tt := newTestTable(t, Options{})
	sc := tt.Schema()
	now := tt.clk.Now()
	const dupDevice, dupTs = 5, -1000 // dupTs relative to now
	sourceRows := func(ord int64, devices ...int64) []schema.Row {
		var rows []schema.Row
		for _, d := range devices {
			ts := now - 10
			if d == dupDevice {
				ts = now + dupTs
			}
			rows = append(rows, usageRow(1, d, ts, 0, ord))
		}
		return rows
	}
	// Oldest source first: ties go to the newest, the memtable (seq 2).
	sources := [][]schema.Row{
		sourceRows(0, 1, 3, 5, 7, 9),
		sourceRows(1, 2, 5, 6, 10),
		sourceRows(2, 4, 5, 8),
	}
	var tabs []*tablet.Tablet
	for _, rows := range sources[:2] {
		path := filepath.Join(t.TempDir(), "src.tab")
		w, err := tablet.Create(path, sc, tablet.WriterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if err := w.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := w.Close(); err != nil {
			t.Fatal(err)
		}
		tab, err := tablet.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer tab.Close()
		tabs = append(tabs, tab)
	}

	for _, desc := range []bool{false, true} {
		for _, tc := range []struct {
			name     string
			minTs    int64
			expireLT int64
			wantDup  bool
		}{
			{"unbounded", TsMin, TsMin, true},
			{"time bound", now - 500, TsMin, false},
			{"ttl", TsMin, now - 500, false},
		} {
			q := NewQuery()
			q.MinTs = tc.minTs
			q.Descending = desc
			it := &Iterator{t: tt.Table, q: q, sc: sc, expireLT: tc.expireLT, m: merger{sc: sc, asc: !desc}}
			it.ctx, it.cancel = context.WithCancel(context.Background())
			for ord, tab := range tabs {
				ds, err := newDiskSource(sc, tab, &it.q, &it.scanned, tablet.ReadOptions{PrefetchDepth: 2})
				if err != nil {
					t.Fatal(err)
				}
				it.push(&reusingSource{rowSource: ds}, ord)
			}
			mem := append([]schema.Row(nil), sources[2]...)
			if desc {
				for i, j := 0, len(mem)-1; i < j; i, j = i+1, j-1 {
					mem[i], mem[j] = mem[j], mem[i]
				}
			}
			it.push(&reusingSource{rowSource: &memSource{rows: mem}}, len(tabs))
			var got []schema.Row
			for it.Next() {
				got = append(got, schema.CloneRow(it.Row()))
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
			it.Close()

			var want []int64
			for d := int64(1); d <= 10; d++ {
				if d != dupDevice || tc.wantDup {
					want = append(want, d)
				}
			}
			if desc {
				for i, j := 0, len(want)-1; i < j; i, j = i+1, j-1 {
					want[i], want[j] = want[j], want[i]
				}
			}
			if len(got) != len(want) {
				t.Fatalf("desc=%v %s: %d rows, want %d: %v", desc, tc.name, len(got), len(want), got)
			}
			for i, r := range got {
				if r[1].Int != want[i] {
					t.Fatalf("desc=%v %s: row %d is device %d, want %d: %v", desc, tc.name, i, r[1].Int, want[i], got)
				}
				if r[1].Int == dupDevice && r[4].Int != 2 {
					t.Errorf("desc=%v %s: shared key came from source %d, want the newest (2)", desc, tc.name, r[4].Int)
				}
			}
		}
	}
}
