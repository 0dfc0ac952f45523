package block

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"

	"littletable/internal/ltval"
	"littletable/internal/lzf"
	"littletable/internal/schema"
)

// allTypesSchema has one column of every value type.
func allTypesSchema(t testing.TB) *schema.Schema {
	t.Helper()
	return schema.MustNew([]schema.Column{
		{Name: "i32", Type: ltval.Int32},
		{Name: "i64", Type: ltval.Int64},
		{Name: "ts", Type: ltval.Timestamp},
		{Name: "d", Type: ltval.Double},
		{Name: "s", Type: ltval.String},
		{Name: "b", Type: ltval.Blob},
	}, []string{"i64", "ts"})
}

// familyCodecs lists every codec legal for each column class.
var familyCodecs = map[schema.ColumnClass][]Codec{
	schema.ClassInt:   {CodecDelta, CodecPlain},
	schema.ClassFloat: {CodecXOR, CodecPlain},
	schema.ClassBytes: {CodecDict, CodecLZF, CodecPlain},
}

// encodeForced builds a columnar image of rows with the given codec per
// column, bypassing the writer's size-based choice, so every codec can be
// paired with every column type.
func encodeForced(t *testing.T, sc *schema.Schema, rows []schema.Row, codecs []Codec) []byte {
	t.Helper()
	w := NewWriter(sc)
	for _, r := range rows {
		w.Append(r)
	}
	img := []byte{colFormatVersion, 0, 0, 0, 0}
	img = appendUvarint(img, uint64(len(rows)))
	img = appendUvarint(img, uint64(len(w.cols)))
	for _, c := range codecs {
		img = append(img, byte(c))
	}
	for i := range w.cols {
		c := &w.cols[i]
		var enc []byte
		switch codecs[i] {
		case CodecDelta:
			enc = encodeDelta(nil, c.ints)
		case CodecXOR:
			enc = encodeXOR(nil, c.floats)
		case CodecDict:
			var ok bool
			if enc, ok = encodeDict(nil, c); !ok {
				t.Fatalf("column %d: too many distinct cells for a dictionary", i)
			}
		case CodecLZF:
			plain := encodePlainBytes(nil, c)
			enc = lzf.Compress(appendUvarint(nil, uint64(len(plain))), plain)
		default:
			switch c.class {
			case schema.ClassInt:
				enc = encodePlainInts(nil, c.ints, sc.Columns[i].Type)
			case schema.ClassFloat:
				enc = encodePlainFloats(nil, c.floats)
			default:
				enc = encodePlainBytes(nil, c)
			}
		}
		img = appendUvarint(img, uint64(len(enc)))
		img = append(img, enc...)
	}
	crc := crc32.Checksum(img[5:], castagnoli)
	img[1], img[2], img[3], img[4] = byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24)
	return img
}

// typedRows generates n rows over allTypesSchema, mixing each type's
// extremes and specials with random values. Byte cells come from a small
// alphabet and include empty cells, so they fit a dictionary when dict is
// set and compress under LZF otherwise.
func typedRows(rng *rand.Rand, n int, dict bool) []schema.Row {
	i32s := []int64{math.MinInt32, math.MaxInt32, 0, -1, 1}
	i64s := []int64{math.MinInt64, math.MaxInt64, 0, -1, 1}
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, math.MaxFloat64}
	cell := func() []byte {
		if dict {
			return []byte([]string{"", "wan1", "wan2", "lan", "a-much-longer-label"}[rng.Intn(5)])
		}
		b := make([]byte, rng.Intn(40))
		for i := range b {
			b[i] = "abcab-"[rng.Intn(6)]
		}
		return b
	}
	rows := make([]schema.Row, n)
	for i := range rows {
		i32 := int64(int32(rng.Uint32()))
		i64 := int64(rng.Uint64())
		f := rng.NormFloat64() * 1e3
		if rng.Intn(3) == 0 {
			i32 = i32s[rng.Intn(len(i32s))]
			i64 = i64s[rng.Intn(len(i64s))]
			f = floats[rng.Intn(len(floats))]
		}
		rows[i] = schema.Row{
			{Type: ltval.Int32, Int: i32},
			ltval.NewInt64(i64),
			ltval.NewTimestamp(1_782_018_420_000_000 + int64(i)*60_000_000),
			ltval.NewDouble(f),
			{Type: ltval.String, Bytes: cell()},
			{Type: ltval.Blob, Bytes: cell()},
		}
	}
	return rows
}

func sameCell(a, b ltval.Value) bool {
	return a.Type == b.Type && a.Int == b.Int &&
		math.Float64bits(a.Float) == math.Float64bits(b.Float) && bytes.Equal(a.Bytes, b.Bytes)
}

// TestTypedDecodeMatchesLegacyRows decodes the same rows from a columnar
// image, under every codec paired with every column type, and from the
// legacy row-major image, and requires identical cells: Int32 extremes,
// float specials down to the bit, empty byte cells and empty columns.
func TestTypedDecodeMatchesLegacyRows(t *testing.T) {
	sc := allTypesSchema(t)
	rng := rand.New(rand.NewSource(12))
	covered := map[string]bool{}
	for _, n := range []int{0, 1, 300} {
		for round := 0; round < 3; round++ {
			codecs := make([]Codec, len(sc.Columns))
			dict := false
			for i := range codecs {
				fam := familyCodecs[sc.ColumnClass(i)]
				codecs[i] = fam[round%len(fam)]
				dict = dict || codecs[i] == CodecDict
				covered[fmt.Sprintf("%v/%d", sc.Columns[i].Type, codecs[i])] = true
			}
			rows := typedRows(rng, n, dict)
			lw := NewWriterMode(sc, ModeLegacy)
			for _, r := range rows {
				lw.Append(r)
			}
			limg, _ := lw.Finish()
			legacy, err := Parse(sc, limg)
			if err != nil {
				t.Fatal(err)
			}
			typed, err := Decode(sc, EncColumnar, encodeForced(t, sc, rows, codecs))
			if err != nil {
				t.Fatalf("n=%d codecs %v: %v", n, codecs, err)
			}
			if typed.Len() != n || legacy.Len() != n {
				t.Fatalf("n=%d: typed Len %d, legacy Len %d", n, typed.Len(), legacy.Len())
			}
			got := make(schema.Row, len(sc.Columns))
			for i := 0; i < n; i++ {
				want, err := legacy.Row(i)
				if err != nil {
					t.Fatal(err)
				}
				if err := typed.RowInto(got, i); err != nil {
					t.Fatal(err)
				}
				for c := range want {
					if !sameCell(got[c], want[c]) || !sameCell(got[c], rows[i][c]) {
						t.Fatalf("n=%d codecs %v row %d col %s: typed %v, legacy %v", n, codecs, i, sc.Columns[c].Name, got[c], want[c])
					}
				}
			}
		}
	}
	for class, fam := range familyCodecs {
		for i, c := range sc.Columns {
			if sc.ColumnClass(i) != class {
				continue
			}
			for _, codec := range fam {
				if !covered[fmt.Sprintf("%v/%d", c.Type, codec)] {
					t.Errorf("codec %d never paired with %v", codec, c.Type)
				}
			}
		}
	}
}

// TestReadPathAllocs pins the read path at zero allocations: a row read
// into a reused buffer and both binary searches, over columnar and legacy
// blocks.
func TestReadPathAllocs(t *testing.T) {
	for _, mode := range []Mode{ModeAuto, ModeLegacy} {
		blk := buildBlockMode(t, 500, mode)
		if got := blk.cols != nil; got != (mode == ModeAuto) {
			t.Fatalf("mode %d: columnar = %v", mode, got)
		}
		row := make(schema.Row, 3)
		k := key(25, 3)
		i := 0
		if a := testing.AllocsPerRun(200, func() {
			if err := blk.RowInto(row, i%blk.Len()); err != nil {
				t.Fatal(err)
			}
			i++
		}); a != 0 {
			t.Errorf("mode %d: RowInto allocates %.1f times per row", mode, a)
		}
		if a := testing.AllocsPerRun(100, func() {
			if _, err := blk.Search(k); err != nil {
				t.Fatal(err)
			}
			if _, err := blk.SearchAfter(k); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("mode %d: Search allocates %.1f times per call", mode, a)
		}
	}
}
