package schema

import (
	"fmt"

	"littletable/internal/ltval"
)

// AppendRow appends the binary encoding of row (which must match s) to dst.
// The encoding is simply each cell's ltval encoding in column order; the
// schema supplies all type information on decode, so rows carry no tags.
func (s *Schema) AppendRow(dst []byte, row Row) []byte {
	for _, v := range row {
		dst = v.Append(dst)
	}
	return dst
}

// EncodedRowSize returns the number of bytes AppendRow will write.
func (s *Schema) EncodedRowSize(row Row) int {
	n := 0
	for _, v := range row {
		n += v.EncodedSize()
	}
	return n
}

// DecodeRowInto decodes one row from b into dst, which must hold one cell
// per column, returning the bytes consumed. Byte-slice cells alias b.
func (s *Schema) DecodeRowInto(dst Row, b []byte) (int, error) {
	off := 0
	for i, c := range s.Columns {
		v, n, err := ltval.Decode(c.Type, b[off:])
		if err != nil {
			return 0, fmt.Errorf("schema: row column %q: %w", c.Name, err)
		}
		dst[i] = v
		off += n
	}
	return off, nil
}

// AppendKey appends the encoding of just the primary-key cells of row, in
// key order. Used for block index entries and Bloom filters, where only the
// key matters.
func (s *Schema) AppendKey(dst []byte, row Row) []byte {
	for _, k := range s.Key {
		dst = row[k].Append(dst)
	}
	return dst
}

// DecodeKey decodes a key encoded by AppendKey into key-ordered values.
func (s *Schema) DecodeKey(b []byte) ([]ltval.Value, error) {
	out := make([]ltval.Value, len(s.Key))
	off := 0
	for i, k := range s.Key {
		v, n, err := ltval.Decode(s.Columns[k].Type, b[off:])
		if err != nil {
			return nil, fmt.Errorf("schema: key column %q: %w", s.Columns[k].Name, err)
		}
		out[i] = v
		off += n
	}
	if off != len(b) {
		return nil, fmt.Errorf("schema: %d trailing bytes after key", len(b)-off)
	}
	return out, nil
}

// CompareRowToKey orders row against a key-ordered value slice (as produced
// by KeyOf or DecodeKey), comparing at most len(key) key columns. A short
// key acts as a prefix: rows equal on the prefix compare as 0.
func (s *Schema) CompareRowToKey(row Row, key []ltval.Value) int {
	n := len(key)
	if n > len(s.Key) {
		n = len(s.Key)
	}
	for i := 0; i < n; i++ {
		if c := row[s.Key[i]].Compare(key[i]); c != 0 {
			return c
		}
	}
	return 0
}

// CompareKeySlices orders two key-ordered value slices lexicographically.
// Slices of different lengths compare by common prefix, then by length, so
// a proper prefix sorts before any extension of it.
func CompareKeySlices(a, b []ltval.Value) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := a[i].Compare(b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}
