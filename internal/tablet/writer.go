package tablet

import (
	"bufio"
	"fmt"
	"sync"

	"littletable/internal/block"
	"littletable/internal/bloom"
	"littletable/internal/schema"
	"littletable/internal/vfs"
)

// WriterOptions tune tablet creation. The zero value gives the paper's
// defaults.
type WriterOptions struct {
	// BlockSize is the uncompressed block target; default block.TargetSize
	// (64 kB, §3.2).
	BlockSize int
	// DisableCompression skips lzf, for benchmarks isolating disk cost.
	DisableCompression bool
	// DisableBloom skips the per-tablet Bloom filter (§3.4.5).
	DisableBloom bool
	// Encoding selects the block encoding mode: block.ModeAuto (default)
	// trial-encodes each block per column; block.ModeLegacy reproduces the
	// pre-columnar format exactly, including a version-1 footer, so the
	// output is parseable by old readers.
	Encoding block.Mode
	// Sync fsyncs the file before rename on Close, and the parent directory
	// after it (a rename without a directory fsync is not durable on ext4).
	// LittleTable's durability story tolerates losing recent tablets, so
	// syncing is optional and the engine syncs only at descriptor-update
	// boundaries.
	Sync bool

	// FS abstracts filesystem access; nil means the real OS filesystem.
	// Tests inject fault-injecting or crash-simulating implementations.
	FS vfs.FS
}

func (o *WriterOptions) fsys() vfs.FS {
	if o.FS != nil {
		return o.FS
	}
	return vfs.OsFS{}
}

func (o *WriterOptions) blockSize() int {
	if o.BlockSize > 0 {
		return o.BlockSize
	}
	return block.TargetSize
}

// Info summarizes a written tablet for the table descriptor.
type Info struct {
	Path     string
	RowCount int64
	MinTs    int64
	MaxTs    int64
	Bytes    int64 // on-disk size
	// Enc reports what the block encoder did, for the engine's counters.
	Enc block.EncodeStats
}

// Writer streams rows in ascending primary-key order into a new tablet
// file. The file is written under a temporary name and atomically renamed
// into place on Close, so a crash mid-flush leaves no partial tablet
// visible (§3.2's descriptor update makes it durable).
type Writer struct {
	path    string
	tmpPath string
	fsys    vfs.FS
	f       vfs.File
	w       *bufio.Writer
	opts    WriterOptions
	sc      *schema.Schema

	bw      *block.Writer
	ft      footer
	off     int64
	last    schema.KeyBuf // key of the last appended row
	blkMin  int64
	blkMax  int64
	hashes  []uint64 // h1,h2 pairs for the bloom filter
	scratch []byte
	closed  bool
}

// bufPool recycles tablet write buffers: flushes and merges create
// tablets back to back, and a fresh 1 MiB buffer per tablet dominated the
// write path's allocation. Buffers are reset before reuse, so the write
// pattern is unchanged.
var bufPool = sync.Pool{New: func() interface{} { return bufio.NewWriterSize(nil, 1<<20) }}

// Create opens a tablet writer for rows of schema sc at path.
func Create(path string, sc *schema.Schema, opts WriterOptions) (*Writer, error) {
	tmp := path + ".tmp"
	fsys := opts.fsys()
	f, err := fsys.Create(tmp)
	if err != nil {
		return nil, err
	}
	ftVersion := uint32(formatVersion)
	if opts.Encoding == block.ModeLegacy {
		ftVersion = formatVersionV1
	}
	buf := bufPool.Get().(*bufio.Writer)
	buf.Reset(f)
	return &Writer{
		path:    path,
		tmpPath: tmp,
		fsys:    fsys,
		f:       f,
		w:       buf,
		opts:    opts,
		sc:      sc,
		bw:      block.NewWriterMode(sc, opts.Encoding),
		ft:      footer{sc: sc, version: ftVersion},
	}, nil
}

// Append adds row, which must be in strictly ascending key order relative
// to all previous rows.
func (w *Writer) Append(row schema.Row) error {
	if w.closed {
		return ErrClosed
	}
	if last := w.last.Row(); last != nil && w.sc.CompareKeys(last, row) >= 0 {
		return fmt.Errorf("%w: key %v after %v", ErrOutOfOrder, w.sc.KeyOf(row), w.sc.KeyOf(last))
	}
	ts := w.sc.Ts(row)
	if w.ft.rowCount == 0 {
		w.ft.minTs, w.ft.maxTs = ts, ts
	} else {
		if ts < w.ft.minTs {
			w.ft.minTs = ts
		}
		if ts > w.ft.maxTs {
			w.ft.maxTs = ts
		}
	}
	if w.bw.Count() == 0 {
		w.blkMin, w.blkMax = ts, ts
	} else {
		if ts < w.blkMin {
			w.blkMin = ts
		}
		if ts > w.blkMax {
			w.blkMax = ts
		}
	}
	w.bw.Append(row)
	w.ft.rowCount++
	if !w.opts.DisableBloom {
		w.scratch = w.sc.AppendKey(w.scratch[:0], row)
		h1, h2 := bloom.Hash(w.scratch)
		w.hashes = append(w.hashes, h1, h2)
	}
	// Retain a copy of the last key for order checking and the block's
	// last-key index entry; row contents may alias caller buffers.
	w.last.Set(w.sc, row)
	if w.bw.SizeBytes() >= w.opts.blockSize() {
		return w.flushBlock()
	}
	return nil
}

func (w *Writer) flushBlock() error {
	if w.bw.Count() == 0 {
		return nil
	}
	rowCount := w.bw.Count()
	img, enc := w.bw.Finish()
	rec, diskLen := appendRecord(nil, img, !w.opts.DisableCompression)
	if _, err := w.w.Write(rec); err != nil {
		return err
	}
	w.ft.blocks = append(w.ft.blocks, blockMeta{
		offset:   w.off,
		diskLen:  int32(diskLen),
		rawLen:   int32(len(img)),
		rowCount: int32(rowCount),
		enc:      enc,
		minTs:    w.blkMin,
		maxTs:    w.blkMax,
		lastKey:  w.sc.AppendKey(nil, w.last.Row()),
	})
	w.off += int64(diskLen)
	return nil
}

// RowCount returns the number of rows appended so far.
func (w *Writer) RowCount() int64 { return w.ft.rowCount }

// Abort discards the partially-written tablet.
func (w *Writer) Abort() error {
	if w.closed {
		return nil
	}
	w.closed = true
	w.releaseBuf()
	w.f.Close()
	return w.fsys.Remove(w.tmpPath)
}

// Close flushes remaining rows, writes the footer and trailer, optionally
// syncs, and renames the file into place. It returns the tablet's summary.
func (w *Writer) Close() (*Info, error) {
	if w.closed {
		return nil, ErrClosed
	}
	w.closed = true
	if err := w.flushBlock(); err != nil {
		w.cleanup()
		return nil, err
	}
	if !w.opts.DisableBloom && len(w.hashes) > 0 {
		w.ft.filter = bloom.New(len(w.hashes) / 2)
		for i := 0; i < len(w.hashes); i += 2 {
			w.ft.filter.AddHash(w.hashes[i], w.hashes[i+1])
		}
	}
	footerOff := w.off
	rec, diskLen := appendRecord(nil, w.ft.marshal(), !w.opts.DisableCompression)
	if _, err := w.w.Write(rec); err != nil {
		w.cleanup()
		return nil, err
	}
	w.off += int64(diskLen)
	var tr [trailerSize]byte
	putU64(tr[:], uint64(footerOff))
	putU64(tr[8:], magic)
	if _, err := w.w.Write(tr[:]); err != nil {
		w.cleanup()
		return nil, err
	}
	w.off += trailerSize
	if err := w.w.Flush(); err != nil {
		w.cleanup()
		return nil, err
	}
	w.releaseBuf()
	if w.opts.Sync {
		if err := w.f.Sync(); err != nil {
			w.cleanup()
			return nil, err
		}
	}
	if err := w.f.Close(); err != nil {
		w.fsys.Remove(w.tmpPath)
		return nil, err
	}
	if err := w.fsys.Rename(w.tmpPath, w.path); err != nil {
		w.fsys.Remove(w.tmpPath)
		return nil, err
	}
	if w.opts.Sync {
		// Make the rename durable: without a directory fsync the new entry
		// may not survive a power cut even though the file data did.
		if err := w.fsys.SyncDir(vfs.DirOf(w.path)); err != nil {
			return nil, err
		}
	}
	return &Info{
		Path:     w.path,
		RowCount: w.ft.rowCount,
		MinTs:    w.ft.minTs,
		MaxTs:    w.ft.maxTs,
		Bytes:    w.off,
		Enc:      w.bw.Stats(),
	}, nil
}

func (w *Writer) cleanup() {
	w.releaseBuf()
	w.f.Close()
	w.fsys.Remove(w.tmpPath)
}

// releaseBuf returns the write buffer to the pool, discarding anything
// still buffered; the writer is closed and never writes again.
func (w *Writer) releaseBuf() {
	if w.w == nil {
		return
	}
	w.w.Reset(nil)
	bufPool.Put(w.w)
	w.w = nil
}
