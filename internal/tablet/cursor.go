package tablet

import (
	"context"

	"littletable/internal/block"
	"littletable/internal/ltval"
	"littletable/internal/schema"
)

// ReadOptions tune how a cursor reads its tablet.
type ReadOptions struct {
	// Ctx cancels in-flight and future block loads, including the
	// prefetch pipeline's. nil means never cancelled.
	Ctx context.Context

	// PrefetchDepth enables a background block prefetcher reading up to
	// this many blocks ahead of the cursor. <= 0 disables prefetch and
	// the cursor loads blocks synchronously, as before.
	PrefetchDepth int

	// Bound is the far end of the scan's key range, with prefix
	// semantics: the upper bound ascending, the lower bound descending;
	// nil means unbounded. The prefetcher reads no block lying wholly
	// past it. It never changes which rows the cursor yields.
	Bound []ltval.Value
}

// Cursor iterates a tablet's rows in key order. It decodes one block at a
// time, into one reused row; Row is valid until the next call to Next.
// Cursors are not safe for concurrent use, but many cursors may read one
// Tablet concurrently. A cursor opened with a PrefetchDepth owns a
// goroutine; Close reaps it (Close is a no-op otherwise, and always
// idempotent).
type Cursor struct {
	t      *Tablet
	asc    bool
	ro     ReadOptions
	blkIdx int
	rowIdx int
	blk    *block.Block
	row    schema.Row
	err    error
	done   bool
	closed bool
	pf     *prefetcher

	// BlocksRead counts block loads, for scan-efficiency accounting
	// (Figure 9) and the disk-model benches.
	BlocksRead int

	// PrefetchHits counts blocks served by the prefetch pipeline rather
	// than a synchronous load.
	PrefetchHits int
}

// Cursor returns an iterator over the entire tablet.
func (t *Tablet) Cursor(asc bool) *Cursor {
	return t.CursorOpts(asc, ReadOptions{})
}

// CursorOpts is Cursor with explicit read options.
func (t *Tablet) CursorOpts(asc bool, ro ReadOptions) *Cursor {
	c := &Cursor{t: t, asc: asc, ro: ro}
	if asc {
		c.blkIdx, c.rowIdx = 0, 0
	} else {
		c.blkIdx = len(t.ft.blocks) - 1
		c.rowIdx = -2 // resolved to last row of the block on first load
	}
	if len(t.ft.blocks) == 0 {
		c.done = true
	}
	c.startPrefetch()
	return c
}

// Seek returns a cursor positioned so that the first Next yields:
//
//   - ascending: the first row with key >= probe (prefix semantics);
//   - descending: the last row with key <= probe (rows matching a short
//     probe as a prefix count as equal, so descending lands on the last
//     row of the equal range).
func (t *Tablet) Seek(probe []ltval.Value, asc bool) (*Cursor, error) {
	return t.SeekOpts(probe, asc, ReadOptions{})
}

// SeekOpts is Seek with explicit read options.
func (t *Tablet) SeekOpts(probe []ltval.Value, asc bool, ro ReadOptions) (*Cursor, error) {
	c, err := t.seekOpts(probe, asc, ro)
	if err != nil {
		return nil, err
	}
	c.startPrefetch()
	return c, nil
}

func (t *Tablet) seekOpts(probe []ltval.Value, asc bool, ro ReadOptions) (*Cursor, error) {
	c := &Cursor{t: t, asc: asc, ro: ro}
	if len(t.ft.blocks) == 0 {
		c.done = true
		return c, nil
	}
	if asc {
		bi := t.searchBlocks(probe)
		if bi == len(t.ft.blocks) {
			c.done = true
			return c, nil
		}
		blk, err := t.loadBlockCtx(ro.Ctx, bi)
		if err != nil {
			return nil, err
		}
		c.BlocksRead++
		ri, err := blk.Search(probe)
		if err != nil {
			return nil, err
		}
		// probe <= lastKey of this block, so ri < blk.Len() always; guard
		// anyway for corrupt indexes.
		if ri >= blk.Len() {
			bi++
			if bi == len(t.ft.blocks) {
				c.done = true
				return c, nil
			}
			blk, err = t.loadBlockCtx(ro.Ctx, bi)
			if err != nil {
				return nil, err
			}
			c.BlocksRead++
			ri = 0
		}
		c.blk, c.blkIdx, c.rowIdx = blk, bi, ri
		return c, nil
	}
	// Descending: find the first block whose lastKey > probe; the target
	// row is there (before the upper bound) or in the previous block.
	bi := t.searchBlocksAfter(probe)
	if bi == len(t.ft.blocks) {
		// Every key <= probe: start at the very last row.
		c.blkIdx = len(t.ft.blocks) - 1
		c.rowIdx = -2
		return c, nil
	}
	blk, err := t.loadBlockCtx(ro.Ctx, bi)
	if err != nil {
		return nil, err
	}
	c.BlocksRead++
	ri, err := blk.SearchAfter(probe)
	if err != nil {
		return nil, err
	}
	if ri == 0 {
		// All rows in this block are > probe; the answer is the previous
		// block's last row.
		if bi == 0 {
			c.done = true
			return c, nil
		}
		c.blkIdx = bi - 1
		c.rowIdx = -2
		return c, nil
	}
	c.blk, c.blkIdx, c.rowIdx = blk, bi, ri-1
	return c, nil
}

// startPrefetch launches the block prefetch pipeline, beginning at the
// first block this cursor has not yet loaded.
func (c *Cursor) startPrefetch() {
	if c.ro.PrefetchDepth <= 0 || c.done {
		return
	}
	start := c.blkIdx
	if c.blk != nil {
		if c.asc {
			start = c.blkIdx + 1
		} else {
			start = c.blkIdx - 1
		}
	}
	if start < 0 || start >= len(c.t.ft.blocks) {
		return
	}
	c.pf = newPrefetcher(c.t, c.ro, start, c.asc)
}

// fetchBlock returns block i, from the prefetch pipeline when one is
// running, synchronously otherwise.
func (c *Cursor) fetchBlock(i int) (*block.Block, error) {
	if c.pf != nil {
		for res := range c.pf.ch {
			if res.err != nil {
				c.pf = nil // the pipeline stopped after an error
				return nil, res.err
			}
			if res.idx == i {
				c.PrefetchHits++
				return res.blk, nil
			}
			// Blocks are produced and consumed in the same order, so a
			// mismatch cannot happen; tolerate it by skipping.
		}
		c.pf = nil // pipeline exhausted its range
	}
	return c.t.loadBlockCtx(c.ro.Ctx, i)
}

// Next advances to the next row, reporting availability. On I/O error it
// returns false and records the error in Err.
func (c *Cursor) Next() bool {
	if c.done || c.err != nil {
		return false
	}
	if c.blk == nil {
		if c.blkIdx < 0 || c.blkIdx >= len(c.t.ft.blocks) {
			c.done = true
			return false
		}
		blk, err := c.fetchBlock(c.blkIdx)
		if err != nil {
			c.err = err
			return false
		}
		c.BlocksRead++
		c.blk = blk
		if c.rowIdx == -2 {
			c.rowIdx = blk.Len() - 1
		}
	}
	if c.rowIdx < 0 || c.rowIdx >= c.blk.Len() {
		// Step to the adjacent block.
		c.blk = nil
		if c.asc {
			c.blkIdx++
			c.rowIdx = 0
		} else {
			c.blkIdx--
			c.rowIdx = -2
		}
		return c.Next()
	}
	if c.row == nil {
		c.row = make(schema.Row, len(c.t.ft.sc.Columns))
	}
	if err := c.blk.RowInto(c.row, c.rowIdx); err != nil {
		c.err = err
		return false
	}
	if c.asc {
		c.rowIdx++
	} else {
		c.rowIdx--
	}
	return true
}

// Row returns the current row; valid after Next reports true and until the
// following Next call, which overwrites it. Byte-valued cells alias the
// immutable block image, so a copied cell outlives the row; callers that
// keep the row itself use schema.CloneRow.
func (c *Cursor) Row() schema.Row { return c.row }

// Err returns the first I/O or corruption error the cursor hit.
func (c *Cursor) Err() error { return c.err }

// Close stops and reaps the prefetch pipeline, if any. It is idempotent
// and must be called on cursors opened with a PrefetchDepth; it is a
// harmless no-op on plain cursors.
func (c *Cursor) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.done = true
	if c.pf != nil {
		c.pf.Close()
		c.pf = nil
	}
}

// fetchResult is one prefetched block (or the error that ended the
// pipeline).
type fetchResult struct {
	idx int
	blk *block.Block
	err error
}

// prefetcher reads blocks ahead of a cursor on its own goroutine, keeping
// up to cap(ch) parsed blocks buffered. The merge loop of a multi-tablet
// query drains one source at a time; every other source's pipeline keeps
// loading in the background, so block latency overlaps instead of
// serializing (the paper's readahead economics, §5.1.5, applied above the
// OS).
type prefetcher struct {
	ch   chan fetchResult
	stop chan struct{}
	done chan struct{}
}

func newPrefetcher(t *Tablet, ro ReadOptions, start int, asc bool) *prefetcher {
	p := &prefetcher{
		ch:   make(chan fetchResult, ro.PrefetchDepth),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	step := 1
	if !asc {
		step = -1
	}
	go func() {
		defer close(p.done)
		defer close(p.ch)
		for i := start; i >= 0 && i < len(t.ft.blocks); i += step {
			if ro.Bound != nil && t.pastBound(i, asc, ro.Bound) {
				return
			}
			blk, err := t.loadBlockCtx(ro.Ctx, i)
			select {
			case p.ch <- fetchResult{idx: i, blk: blk, err: err}:
				if err != nil {
					return
				}
			case <-p.stop:
				return
			}
		}
	}()
	return p
}

// pastBound reports whether block i, and every block after it in the
// scan direction, holds only keys past the scan's far bound. Ascending,
// block i starts above its predecessor's last key; descending, it ends at
// its own.
func (t *Tablet) pastBound(i int, asc bool, bound []ltval.Value) bool {
	if asc {
		return i > 0 && comparePrefix(t.ft.blocks[i-1].key, bound) > 0
	}
	return comparePrefix(t.ft.blocks[i].key, bound) < 0
}

// Close stops the pipeline and waits for its goroutine to exit. Buffered
// results are discarded.
func (p *prefetcher) Close() {
	close(p.stop)
	// Drain so a blocked send wakes promptly; the channel closes when the
	// goroutine exits.
	for range p.ch {
	}
	<-p.done
}
