package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"littletable/internal/vfs"
)

// span is one timed call: name, start, end, the span that caused it
// (0 for a request's root) and the request it belongs to.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. Safe for
// concurrent use.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, req, parent int64) int64 {
	start := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: int64(len(r.spans) + 1), Parent: parent, Req: req, Name: name, Start: start})
	return int64(len(r.spans))
}

// end closes span id and returns its duration.
func (r *recorder) end(id int64) time.Duration {
	end := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	sp := &r.spans[id-1]
	sp.End = end
	return time.Duration(sp.End - sp.Start)
}

// add records a span that has already finished.
func (r *recorder) add(name string, req, parent int64, start, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: int64(len(r.spans) + 1), Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))})
}

// write stores the spans as JSON lines.
func (r *recorder) write(fsys vfs.FS, path string) error {
	f, err := fsys.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, sp := range r.spans {
		if err := enc.Encode(sp); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSpans loads a spans file written by recorder.write.
func readSpans(fsys vfs.FS, path string) ([]span, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(io.NewSectionReader(f, 0, info.Size()))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var out []span
	for sc.Scan() {
		var sp span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, sp)
	}
	return out, sc.Err()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover.
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][]span{}
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, sp := range spans {
		kids := children[sp.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cur := int64(0), sp.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < cur {
				lo = cur
			}
			if hi > sp.End {
				hi = sp.End
			}
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[sp.ID] = sp.End - sp.Start - covered
	}
	return out
}

// ---- counting filesystem ----

// ioCounts are cumulative filesystem counters.
type ioCounts struct {
	ReadBytes, ReadNs, Reads    int64
	WriteBytes, WriteNs, Writes int64
	Syncs                       int64
}

func (a ioCounts) sub(b ioCounts) ioCounts {
	return ioCounts{a.ReadBytes - b.ReadBytes, a.ReadNs - b.ReadNs, a.Reads - b.Reads,
		a.WriteBytes - b.WriteBytes, a.WriteNs - b.WriteNs, a.Writes - b.Writes, a.Syncs - b.Syncs}
}

// spanRef names the span that filesystem calls are children of.
type spanRef struct {
	rec     *recorder
	id, req int64
}

// countFS wraps a vfs.FS, counting and timing reads, writes and syncs.
// While a span is attached, each call is also recorded as its child.
type countFS struct {
	vfs.FS
	readBytes, readNs, reads    atomic.Int64
	writeBytes, writeNs, writes atomic.Int64
	syncs                       atomic.Int64
	active                      atomic.Pointer[spanRef]
}

func newCountFS(inner vfs.FS) *countFS { return &countFS{FS: inner} }

func (c *countFS) counts() ioCounts {
	return ioCounts{c.readBytes.Load(), c.readNs.Load(), c.reads.Load(),
		c.writeBytes.Load(), c.writeNs.Load(), c.writes.Load(), c.syncs.Load()}
}

// attach makes later filesystem calls children of span id; detach with
// attach(nil, 0, 0).
func (c *countFS) attach(rec *recorder, id, req int64) {
	if rec == nil {
		c.active.Store(nil)
		return
	}
	c.active.Store(&spanRef{rec: rec, id: id, req: req})
}

func (c *countFS) child(name string, start time.Time) {
	if ref := c.active.Load(); ref != nil {
		ref.rec.add(name, ref.req, ref.id, start, time.Now())
	}
}

// Create implements vfs.FS.
func (c *countFS) Create(name string) (vfs.File, error) {
	f, err := c.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, c: c}, nil
}

// Open implements vfs.FS.
func (c *countFS) Open(name string) (vfs.File, error) {
	f, err := c.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, c: c}, nil
}

// SyncDir implements vfs.FS.
func (c *countFS) SyncDir(name string) error {
	start := time.Now()
	err := c.FS.SyncDir(name)
	c.syncs.Add(1)
	c.child("vfs.syncdir", start)
	return err
}

type countFile struct {
	vfs.File
	c *countFS
}

func (f *countFile) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.File.ReadAt(p, off)
	f.c.reads.Add(1)
	f.c.readBytes.Add(int64(n))
	f.c.readNs.Add(int64(time.Since(start)))
	f.c.child("vfs.read", start)
	return n, err
}

func (f *countFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.c.writes.Add(1)
	f.c.writeBytes.Add(int64(n))
	f.c.writeNs.Add(int64(time.Since(start)))
	f.c.child("vfs.write", start)
	return n, err
}

func (f *countFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.c.syncs.Add(1)
	f.c.child("vfs.sync", start)
	return err
}
