package block

import (
	"fmt"
	"hash/crc32"
	"math"

	"littletable/internal/ltval"
	"littletable/internal/lzf"
	"littletable/internal/schema"
)

// Decode parses a block image whose top-level encoding enc was recorded in
// the tablet footer. Legacy images go through Parse; columnar images are
// decoded into per-column value vectors.
func Decode(sc *schema.Schema, enc Encoding, data []byte) (*Block, error) {
	switch enc {
	case EncLegacy:
		return Parse(sc, data)
	case EncColumnar:
		return parseColumnar(sc, data)
	default:
		return nil, fmt.Errorf("%w: unknown encoding %d", ErrCorrupt, enc)
	}
}

// parseColumnar validates and decodes a columnar block image. Every codec
// must consume its column's bytes exactly, and the image must hold exactly
// the declared columns — trailing garbage is corruption, not slack.
func parseColumnar(sc *schema.Schema, data []byte) (*Block, error) {
	r := data
	if len(r) < 5 || r[0] != colFormatVersion {
		return nil, fmt.Errorf("%w: bad columnar version", ErrCorrupt)
	}
	crc := uint32(r[1]) | uint32(r[2])<<8 | uint32(r[3])<<16 | uint32(r[4])<<24
	r = r[5:]
	if crc32.Checksum(r, castagnoli) != crc {
		return nil, fmt.Errorf("%w: columnar checksum mismatch", ErrCorrupt)
	}
	rowCount, w := uvarint(r)
	if w <= 0 {
		return nil, fmt.Errorf("%w: bad row count", ErrCorrupt)
	}
	r = r[w:]
	ncols, w := uvarint(r)
	if w <= 0 {
		return nil, fmt.Errorf("%w: bad column count", ErrCorrupt)
	}
	r = r[w:]
	// A value costs at least one bit in the cheapest codec (XOR repeats),
	// so any genuine image bounds rowCount by its own size. Reject larger
	// claims before allocating anything proportional to them.
	if ncols != uint64(len(sc.Columns)) || rowCount > uint64(8*len(data)+64) {
		return nil, fmt.Errorf("%w: claims %d rows × %d cols", ErrCorrupt, rowCount, ncols)
	}
	n := int(rowCount)
	if len(r) < int(ncols) {
		return nil, fmt.Errorf("%w: truncated codec list", ErrCorrupt)
	}
	codecs := r[:ncols]
	r = r[ncols:]
	cols := make([]column, ncols)
	for i := range cols {
		encLen, w := uvarint(r)
		if w <= 0 || encLen > uint64(len(r)-w) {
			return nil, fmt.Errorf("%w: truncated column %d", ErrCorrupt, i)
		}
		colEnc := r[w : w+int(encLen)]
		r = r[w+int(encLen):]
		col, err := readColumn(sc.Columns[i].Type, Codec(codecs[i]), colEnc, n)
		if err != nil {
			return nil, fmt.Errorf("column %d (%s): %w", i, sc.Columns[i].Name, err)
		}
		cols[i] = col
	}
	if len(r) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r))
	}
	return &Block{sc: sc, data: data, cols: cols, n: n}, nil
}

// column is one decoded columnar vector. It holds no per-cell pointers:
// int-class cells are int64s, doubles float64s, and byte cells either
// dictionary ids (entries alias the block image) or ranges of one buffer
// of plain ltval encodings (the image, or the LZF-expanded copy).
type column struct {
	typ    ltval.Type
	ints   []int64   // ClassInt
	floats []float64 // ClassFloat
	dict   [][]byte  // CodecDict entries
	ids    []uint32  // CodecDict: row i's entry
	data   []byte    // CodecPlain/CodecLZF byte cells, length-prefixed
	offs   []uint32  // cell i's encoding is data[offs[i]:offs[i+1]]
}

// value returns cell i. Byte cells alias the column's buffer, so the
// call allocates nothing.
func (c *column) value(i int) ltval.Value {
	switch {
	case c.ints != nil:
		return ltval.Value{Type: c.typ, Int: c.ints[i]}
	case c.floats != nil:
		return ltval.Value{Type: c.typ, Float: c.floats[i]}
	case c.ids != nil:
		return ltval.Value{Type: c.typ, Bytes: c.dict[c.ids[i]]}
	default:
		// Skip the uvarint length prefix; parse validated that the payload
		// runs exactly to the next cell's start.
		p := c.offs[i]
		for c.data[p] >= 0x80 {
			p++
		}
		return ltval.Value{Type: c.typ, Bytes: c.data[p+1 : c.offs[i+1]]}
	}
}

// readColumn dispatches one column's bytes to its codec, checking the
// codec is legal for the column's class.
func readColumn(t ltval.Type, codec Codec, enc []byte, n int) (column, error) {
	class := schema.ClassOf(t)
	switch codec {
	case CodecPlain:
		return readPlain(t, enc, n)
	case CodecDelta:
		if class != schema.ClassInt {
			return column{}, fmt.Errorf("%w: delta codec on %v column", ErrCorrupt, t)
		}
		return readDelta(t, enc, n)
	case CodecXOR:
		if class != schema.ClassFloat {
			return column{}, fmt.Errorf("%w: xor codec on %v column", ErrCorrupt, t)
		}
		return readXOR(enc, n)
	case CodecDict:
		if class != schema.ClassBytes {
			return column{}, fmt.Errorf("%w: dict codec on %v column", ErrCorrupt, t)
		}
		return readDict(t, enc, n)
	case CodecLZF:
		if class != schema.ClassBytes {
			return column{}, fmt.Errorf("%w: lzf codec on %v column", ErrCorrupt, t)
		}
		return readLZF(t, enc, n)
	default:
		return column{}, fmt.Errorf("%w: unknown codec %d", ErrCorrupt, codec)
	}
}

// readPlain decodes n concatenated ltval encodings, requiring exact
// consumption, into the vector of the type's class. Byte cells are not
// copied: the column records where each encoding starts in enc.
func readPlain(t ltval.Type, enc []byte, n int) (column, error) {
	col := column{typ: t}
	hint := capHint(n, len(enc))
	switch schema.ClassOf(t) {
	case schema.ClassInt:
		col.ints = make([]int64, 0, hint)
	case schema.ClassFloat:
		col.floats = make([]float64, 0, hint)
	default:
		col.data = enc
		col.offs = make([]uint32, 0, hint+1)
	}
	off := 0
	for i := 0; i < n; i++ {
		v, w, err := ltval.Decode(t, enc[off:])
		if err != nil {
			return column{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		switch {
		case col.ints != nil:
			col.ints = append(col.ints, v.Int)
		case col.floats != nil:
			col.floats = append(col.floats, v.Float)
		default:
			col.offs = append(col.offs, uint32(off))
		}
		off += w
	}
	if off != len(enc) {
		return column{}, fmt.Errorf("%w: %d trailing column bytes", ErrCorrupt, len(enc)-off)
	}
	if col.offs != nil {
		col.offs = append(col.offs, uint32(off))
	}
	return col, nil
}

// readDelta reverses encodeDelta with the same wrapping arithmetic.
// Int32 columns additionally require every value to fit in 32 bits: a
// flipped delta that walks out of range is corruption, not a new value.
func readDelta(t ltval.Type, enc []byte, n int) (column, error) {
	vals := make([]int64, 0, capHint(n, len(enc)))
	var prev, prevDelta uint64
	for i := 0; i < n; i++ {
		u, w := uvarint(enc)
		if w <= 0 {
			return column{}, fmt.Errorf("%w: bad delta varint", ErrCorrupt)
		}
		enc = enc[w:]
		if i == 0 {
			prev = uint64(unzigzag(u))
		} else {
			prevDelta += uint64(unzigzag(u))
			prev += prevDelta
		}
		v := int64(prev)
		if t == ltval.Int32 && v != int64(int32(v)) {
			return column{}, fmt.Errorf("%w: delta value overflows int32", ErrCorrupt)
		}
		vals = append(vals, v)
	}
	if len(enc) != 0 {
		return column{}, fmt.Errorf("%w: %d trailing column bytes", ErrCorrupt, len(enc))
	}
	return column{typ: t, ints: vals}, nil
}

// readXOR reverses encodeXOR. The bitstream must end within the final
// byte and its padding bits must be zero, so every encoding is canonical
// and trailing garbage is detected.
func readXOR(enc []byte, n int) (column, error) {
	vals := make([]float64, 0, capHint(n, len(enc)))
	if n == 0 {
		if len(enc) != 0 {
			return column{}, fmt.Errorf("%w: bytes in empty xor column", ErrCorrupt)
		}
		return column{typ: ltval.Double, floats: vals}, nil
	}
	r := bitReader{b: enc}
	prev, ok := r.readBits(64)
	if !ok {
		return column{}, fmt.Errorf("%w: truncated xor stream", ErrCorrupt)
	}
	vals = append(vals, math.Float64frombits(prev))
	winLZ := uint(255)
	winTZ := uint(0)
	for i := 1; i < n; i++ {
		ctrl, ok := r.readBit()
		if !ok {
			return column{}, fmt.Errorf("%w: truncated xor stream", ErrCorrupt)
		}
		if ctrl == 0 {
			vals = append(vals, math.Float64frombits(prev))
			continue
		}
		reuse, ok := r.readBit()
		if !ok {
			return column{}, fmt.Errorf("%w: truncated xor stream", ErrCorrupt)
		}
		if reuse == 0 {
			if winLZ == 255 {
				return column{}, fmt.Errorf("%w: xor window reused before set", ErrCorrupt)
			}
		} else {
			lz, ok1 := r.readBits(5)
			sigm1, ok2 := r.readBits(6)
			if !ok1 || !ok2 {
				return column{}, fmt.Errorf("%w: truncated xor stream", ErrCorrupt)
			}
			if uint(lz)+uint(sigm1)+1 > 64 {
				return column{}, fmt.Errorf("%w: xor window wider than 64 bits", ErrCorrupt)
			}
			winLZ = uint(lz)
			winTZ = 64 - winLZ - (uint(sigm1) + 1)
		}
		sig := 64 - winLZ - winTZ
		bits, ok := r.readBits(sig)
		if !ok {
			return column{}, fmt.Errorf("%w: truncated xor stream", ErrCorrupt)
		}
		prev ^= bits << winTZ
		vals = append(vals, math.Float64frombits(prev))
	}
	// Exact consumption: the stream must end inside the last byte, with
	// zero padding bits.
	if (r.pos+7)/8 != len(enc) {
		return column{}, fmt.Errorf("%w: %d trailing xor bytes", ErrCorrupt, len(enc)-(r.pos+7)/8)
	}
	for r.pos%8 != 0 {
		bit, _ := r.readBit()
		if bit != 0 {
			return column{}, fmt.Errorf("%w: nonzero xor padding", ErrCorrupt)
		}
	}
	return column{typ: ltval.Double, floats: vals}, nil
}

// readDict reverses encodeDict. Entries alias the block image; indices
// must stay within the declared dictionary.
func readDict(t ltval.Type, enc []byte, n int) (column, error) {
	count, w := uvarint(enc)
	if w <= 0 || count > maxDictEntries {
		return column{}, fmt.Errorf("%w: bad dictionary size", ErrCorrupt)
	}
	enc = enc[w:]
	entries := make([][]byte, 0, count)
	for i := uint64(0); i < count; i++ {
		l, w := uvarint(enc)
		if w <= 0 || l > uint64(len(enc)-w) {
			return column{}, fmt.Errorf("%w: truncated dictionary entry", ErrCorrupt)
		}
		entries = append(entries, enc[w:w+int(l)])
		enc = enc[w+int(l):]
	}
	ids := make([]uint32, 0, capHint(n, len(enc)))
	for i := 0; i < n; i++ {
		id, w := uvarint(enc)
		if w <= 0 || id >= uint64(len(entries)) {
			return column{}, fmt.Errorf("%w: bad dictionary index", ErrCorrupt)
		}
		enc = enc[w:]
		ids = append(ids, uint32(id))
	}
	if len(enc) != 0 {
		return column{}, fmt.Errorf("%w: %d trailing column bytes", ErrCorrupt, len(enc))
	}
	return column{typ: t, dict: entries, ids: ids}, nil
}

// readLZF decompresses the plain byte vector and decodes it. The raw
// length claim is capped so corruption cannot force a huge allocation.
func readLZF(t ltval.Type, enc []byte, n int) (column, error) {
	rawLen, w := uvarint(enc)
	// Beyond the absolute cap, bound the claim by lzf's maximum expansion
	// (255 output bytes per input byte), so a corrupt length cannot size a
	// large zeroed buffer even when the image checksum has been forged.
	if w <= 0 || rawLen > maxColumnBytes || rawLen > uint64(255*(len(enc)-w)+64) {
		return column{}, fmt.Errorf("%w: bad lzf length", ErrCorrupt)
	}
	raw, err := lzf.Decompress(make([]byte, rawLen), enc[w:])
	if err != nil {
		return column{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return readPlain(t, raw, n)
}

// capHint bounds a column vector's preallocation by what its encoded bytes
// could possibly hold, so a corrupt row count cannot drive allocation.
func capHint(n, encLen int) int {
	if limit := 8*encLen + 64; n > limit {
		return limit
	}
	return n
}
