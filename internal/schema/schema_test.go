package schema

import (
	"encoding/json"
	"testing"

	"littletable/internal/ltval"
)

// usageSchema mirrors the paper's running example (§3.1): a table keyed by
// (network, device, ts) storing transfer-rate samples.
func usageSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := New([]Column{
		{Name: "network", Type: ltval.Int64},
		{Name: "device", Type: ltval.Int64},
		{Name: "ts", Type: ltval.Timestamp},
		{Name: "prev_ts", Type: ltval.Timestamp},
		{Name: "counter", Type: ltval.Int64},
		{Name: "rate", Type: ltval.Double},
	}, []string{"network", "device", "ts"})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func usageRow(network, device, ts int64, rate float64) Row {
	return Row{
		ltval.NewInt64(network),
		ltval.NewInt64(device),
		ltval.NewTimestamp(ts),
		ltval.NewTimestamp(ts - 60),
		ltval.NewInt64(0),
		ltval.NewDouble(rate),
	}
}

func TestNewValidation(t *testing.T) {
	ts := Column{Name: "ts", Type: ltval.Timestamp}
	cases := []struct {
		name string
		cols []Column
		key  []string
	}{
		{"no columns", nil, []string{"ts"}},
		{"no key", []Column{ts}, nil},
		{"last key not ts", []Column{{Name: "a", Type: ltval.Int64}, ts}, []string{"ts", "a"}},
		{"ts wrong type", []Column{{Name: "ts", Type: ltval.Int64}}, []string{"ts"}},
		{"duplicate column", []Column{ts, ts}, []string{"ts"}},
		{"unknown key column", []Column{ts}, []string{"nope", "ts"}},
		{"repeated key column", []Column{{Name: "a", Type: ltval.Int64}, ts}, []string{"a", "a", "ts"}},
		{"empty name", []Column{{Name: "", Type: ltval.Int64}, ts}, []string{"ts"}},
		{"invalid type", []Column{{Name: "a"}, ts}, []string{"ts"}},
		{"bad default type", []Column{{Name: "a", Type: ltval.Int64, Default: ltval.NewString("x")}, ts}, []string{"ts"}},
	}
	for _, c := range cases {
		if _, err := New(c.cols, c.key); err == nil {
			t.Errorf("%s: New succeeded, want error", c.name)
		}
	}
}

func TestNewFillsDefaults(t *testing.T) {
	s := usageSchema(t)
	for i, c := range s.Columns {
		if c.Default.Type != c.Type {
			t.Errorf("column %d default type %v, want %v", i, c.Default.Type, c.Type)
		}
	}
}

func TestAccessors(t *testing.T) {
	s := usageSchema(t)
	if s.TsIndex() != 2 {
		t.Errorf("TsIndex = %d, want 2", s.TsIndex())
	}
	if s.KeyLen() != 3 {
		t.Errorf("KeyLen = %d, want 3", s.KeyLen())
	}
	if !s.IsKeyColumn(0) || !s.IsKeyColumn(2) || s.IsKeyColumn(3) {
		t.Error("IsKeyColumn misclassifies columns")
	}
	if s.ColumnIndex("rate") != 5 || s.ColumnIndex("missing") != -1 {
		t.Error("ColumnIndex wrong")
	}
	want := []string{"network", "device", "ts"}
	got := s.KeyNames()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("KeyNames[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestValidate(t *testing.T) {
	s := usageSchema(t)
	if err := s.Validate(usageRow(1, 2, 3, 4)); err != nil {
		t.Errorf("valid row rejected: %v", err)
	}
	if err := s.Validate(usageRow(1, 2, 3, 4)[:3]); err == nil {
		t.Error("short row accepted")
	}
	bad := usageRow(1, 2, 3, 4)
	bad[5] = ltval.NewString("oops")
	if err := s.Validate(bad); err == nil {
		t.Error("type-mismatched row accepted")
	}
}

func TestTsAndSetTs(t *testing.T) {
	s := usageSchema(t)
	r := usageRow(1, 2, 100, 0)
	if s.Ts(r) != 100 {
		t.Errorf("Ts = %d, want 100", s.Ts(r))
	}
	s.SetTs(r, 999)
	if s.Ts(r) != 999 {
		t.Errorf("after SetTs, Ts = %d", s.Ts(r))
	}
}

func TestCompareKeys(t *testing.T) {
	s := usageSchema(t)
	a := usageRow(1, 2, 100, 0)
	b := usageRow(1, 2, 200, 0)
	c := usageRow(1, 3, 50, 0)
	d := usageRow(2, 0, 0, 0)
	if s.CompareKeys(a, b) >= 0 {
		t.Error("ts should break ties last")
	}
	if s.CompareKeys(b, c) >= 0 {
		t.Error("device should dominate ts")
	}
	if s.CompareKeys(c, d) >= 0 {
		t.Error("network should dominate device")
	}
	if s.CompareKeys(a, a) != 0 {
		t.Error("row not equal to itself")
	}
	// Value columns must not affect key order.
	e := usageRow(1, 2, 100, 42.0)
	if s.CompareKeys(a, e) != 0 {
		t.Error("value columns leaked into key comparison")
	}
}

func TestCompareKeyPrefix(t *testing.T) {
	s := usageSchema(t)
	a := usageRow(1, 2, 100, 0)
	b := usageRow(1, 3, 100, 0)
	if s.CompareKeyPrefix(a, b, 1) != 0 {
		t.Error("prefix 1 should match")
	}
	if s.CompareKeyPrefix(a, b, 2) >= 0 {
		t.Error("prefix 2 should differ")
	}
	if s.CompareKeyPrefix(a, b, 99) >= 0 {
		t.Error("over-long prefix should clamp to full key")
	}
}

func TestKeyOfAndCompareRowToKey(t *testing.T) {
	s := usageSchema(t)
	r := usageRow(1, 2, 100, 0)
	key := s.KeyOf(r)
	if len(key) != 3 || key[0].Int != 1 || key[1].Int != 2 || key[2].Int != 100 {
		t.Fatalf("KeyOf = %v", key)
	}
	if s.CompareRowToKey(r, key) != 0 {
		t.Error("row != its own key")
	}
	// Prefix key: only network.
	prefix := key[:1]
	if s.CompareRowToKey(r, prefix) != 0 {
		t.Error("row should equal its prefix")
	}
	other := usageRow(2, 0, 0, 0)
	if s.CompareRowToKey(other, prefix) <= 0 {
		t.Error("bigger network should compare greater")
	}
}

func TestCompareKeySlices(t *testing.T) {
	k1 := []ltval.Value{ltval.NewInt64(1)}
	k12 := []ltval.Value{ltval.NewInt64(1), ltval.NewInt64(2)}
	k2 := []ltval.Value{ltval.NewInt64(2)}
	if CompareKeySlices(k1, k12) != -1 {
		t.Error("prefix should sort before extension")
	}
	if CompareKeySlices(k12, k1) != 1 {
		t.Error("extension should sort after prefix")
	}
	if CompareKeySlices(k1, k2) != -1 || CompareKeySlices(k1, k1) != 0 {
		t.Error("basic ordering wrong")
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	s := usageSchema(t)
	rows := []Row{
		usageRow(1, 2, 100, 1.5),
		usageRow(0, 0, 0, 0),
		usageRow(-1, 1<<60, 1735689600000000, -2.25),
	}
	for _, r := range rows {
		buf := s.AppendRow(nil, r)
		if len(buf) != s.EncodedRowSize(r) {
			t.Errorf("EncodedRowSize = %d, wrote %d", s.EncodedRowSize(r), len(buf))
		}
		got := make(Row, len(s.Columns))
		n, err := s.DecodeRowInto(got, buf)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(buf) {
			t.Errorf("consumed %d of %d", n, len(buf))
		}
		for i := range r {
			if !got[i].Equal(r[i]) {
				t.Errorf("column %d: got %v, want %v", i, got[i], r[i])
			}
		}
	}
}

func TestRowCodecWithStrings(t *testing.T) {
	s := MustNew([]Column{
		{Name: "name", Type: ltval.String},
		{Name: "ts", Type: ltval.Timestamp},
		{Name: "payload", Type: ltval.Blob},
	}, []string{"name", "ts"})
	r := Row{ltval.NewString("device-42"), ltval.NewTimestamp(7), ltval.NewBlob([]byte{1, 2, 3})}
	buf := s.AppendRow(nil, r)
	got := make(Row, len(s.Columns))
	if _, err := s.DecodeRowInto(got, buf); err != nil {
		t.Fatal(err)
	}
	if string(got[0].Bytes) != "device-42" || got[2].Bytes[2] != 3 {
		t.Errorf("string/blob round trip failed: %v", got)
	}
}

func TestKeyCodecRoundTrip(t *testing.T) {
	s := usageSchema(t)
	r := usageRow(5, 6, 700, 0)
	kb := s.AppendKey(nil, r)
	key, err := s.DecodeKey(kb)
	if err != nil {
		t.Fatal(err)
	}
	if CompareKeySlices(key, s.KeyOf(r)) != 0 {
		t.Errorf("key round trip: got %v", key)
	}
	// Trailing garbage must be rejected.
	if _, err := s.DecodeKey(append(kb, 0)); err == nil {
		t.Error("DecodeKey accepted trailing bytes")
	}
}

func TestDecodeRowShort(t *testing.T) {
	s := usageSchema(t)
	buf := s.AppendRow(nil, usageRow(1, 2, 3, 4))
	if _, err := s.DecodeRowInto(make(Row, len(s.Columns)), buf[:len(buf)-1]); err == nil {
		t.Error("DecodeRowInto accepted truncated buffer")
	}
}

func TestAddColumn(t *testing.T) {
	s := usageSchema(t)
	s2, err := s.AddColumn(Column{Name: "tag", Type: ltval.String})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Version != s.Version+1 {
		t.Errorf("version = %d, want %d", s2.Version, s.Version+1)
	}
	if len(s.Columns) != 6 {
		t.Error("AddColumn mutated the original schema")
	}
	if s2.ColumnIndex("tag") != 6 {
		t.Error("new column not at tail")
	}
	if _, err := s.AddColumn(Column{Name: "rate", Type: ltval.Double}); err == nil {
		t.Error("duplicate column accepted")
	}
	if _, err := s.AddColumn(Column{Name: "x", Type: ltval.Invalid}); err == nil {
		t.Error("invalid type accepted")
	}
	if _, err := s.AddColumn(Column{Name: "x", Type: ltval.Int32, Default: ltval.NewString("no")}); err == nil {
		t.Error("mismatched default accepted")
	}
}

func TestWidenColumn(t *testing.T) {
	s := MustNew([]Column{
		{Name: "k", Type: ltval.Int32},
		{Name: "ts", Type: ltval.Timestamp},
		{Name: "v", Type: ltval.Int32},
	}, []string{"k", "ts"})
	s2, err := s.WidenColumn("v")
	if err != nil {
		t.Fatal(err)
	}
	if s2.Columns[2].Type != ltval.Int64 {
		t.Error("column not widened")
	}
	if s.Columns[2].Type != ltval.Int32 {
		t.Error("WidenColumn mutated original")
	}
	if _, err := s.WidenColumn("k"); err == nil {
		t.Error("widening a key column accepted")
	}
	if _, err := s.WidenColumn("ts"); err == nil {
		t.Error("widening a timestamp accepted")
	}
	if _, err := s.WidenColumn("missing"); err == nil {
		t.Error("widening a missing column accepted")
	}
	if _, err := s2.WidenColumn("v"); err == nil {
		t.Error("widening an int64 column accepted")
	}
}

func TestTranslate(t *testing.T) {
	old := MustNew([]Column{
		{Name: "k", Type: ltval.Int64},
		{Name: "ts", Type: ltval.Timestamp},
		{Name: "v", Type: ltval.Int32},
	}, []string{"k", "ts"})
	cur, err := old.WidenColumn("v")
	if err != nil {
		t.Fatal(err)
	}
	cur, err = cur.AddColumn(Column{Name: "tag", Type: ltval.String, Default: ltval.NewString("none")})
	if err != nil {
		t.Fatal(err)
	}
	oldRow := Row{ltval.NewInt64(1), ltval.NewTimestamp(2), ltval.NewInt32(3)}
	got := cur.Translate(old, oldRow)
	if len(got) != 4 {
		t.Fatalf("translated row has %d columns", len(got))
	}
	if got[2].Type != ltval.Int64 || got[2].Int != 3 {
		t.Errorf("widened cell = %v", got[2])
	}
	if string(got[3].Bytes) != "none" {
		t.Errorf("default fill = %v", got[3])
	}
	// Same version short-circuits.
	cr := cur.DefaultsRow()
	if len(cur.Translate(cur, cr)) != 4 {
		t.Error("identity translate wrong arity")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := usageSchema(t)
	s.Version = 7
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var got Schema
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.Version != 7 || len(got.Columns) != 6 || got.KeyLen() != 3 {
		t.Errorf("round trip: %+v", got)
	}
	for i := range s.Columns {
		if got.Columns[i].Name != s.Columns[i].Name || got.Columns[i].Type != s.Columns[i].Type {
			t.Errorf("column %d mismatch", i)
		}
	}
}

func TestJSONRoundTripWithDefaults(t *testing.T) {
	s := MustNew([]Column{
		{Name: "k", Type: ltval.String},
		{Name: "ts", Type: ltval.Timestamp},
		{Name: "n", Type: ltval.Int64, Default: ltval.NewInt64(-1)},
		{Name: "f", Type: ltval.Double, Default: ltval.NewDouble(1.5)},
		{Name: "s", Type: ltval.String, Default: ltval.NewString("d")},
		{Name: "b", Type: ltval.Blob, Default: ltval.NewBlob([]byte{9})},
	}, []string{"k", "ts"})
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var got Schema
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.Columns[2].Default.Int != -1 {
		t.Errorf("int default = %v", got.Columns[2].Default)
	}
	if got.Columns[3].Default.Float != 1.5 {
		t.Errorf("double default = %v", got.Columns[3].Default)
	}
	if string(got.Columns[4].Default.Bytes) != "d" {
		t.Errorf("string default = %v", got.Columns[4].Default)
	}
	if got.Columns[5].Default.Bytes[0] != 9 {
		t.Errorf("blob default = %v", got.Columns[5].Default)
	}
}

func TestJSONRejectsBadSchema(t *testing.T) {
	var s Schema
	if err := json.Unmarshal([]byte(`{"columns":[{"name":"a","type":"int64"}],"key":["a"]}`), &s); err == nil {
		t.Error("schema without ts key accepted")
	}
	if err := json.Unmarshal([]byte(`{"columns":[{"name":"a","type":"nosuch"}],"key":["a"]}`), &s); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestCloneRowIndependence(t *testing.T) {
	r := Row{ltval.NewString("abc"), ltval.NewTimestamp(1)}
	c := CloneRow(r)
	r[0].Bytes[0] = 'X'
	if string(c[0].Bytes) != "abc" {
		t.Error("CloneRow shares byte storage")
	}
}

func TestSchemaString(t *testing.T) {
	s := usageSchema(t)
	want := "network int64, device int64, ts timestamp, prev_ts timestamp, counter int64, rate double, PRIMARY KEY (network, device, ts)"
	if got := s.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestDefaultsRow(t *testing.T) {
	s := usageSchema(t)
	r := s.DefaultsRow()
	if err := s.Validate(r); err != nil {
		t.Errorf("defaults row invalid: %v", err)
	}
}

// TestKeyBufCopiesKeyCells checks that a held key survives its source
// row's buffers being overwritten, and that Set replaces it.
func TestKeyBufCopiesKeyCells(t *testing.T) {
	s := MustNew([]Column{
		{Name: "name", Type: ltval.String},
		{Name: "ts", Type: ltval.Timestamp},
		{Name: "payload", Type: ltval.Blob},
	}, []string{"name", "ts"})
	var k KeyBuf
	if k.Row() != nil {
		t.Fatal("empty KeyBuf has a key")
	}
	name := []byte("device-1")
	k.Set(s, Row{{Type: ltval.String, Bytes: name}, ltval.NewTimestamp(7), ltval.NewBlob([]byte{1})})
	copy(name, "XXXXXXXX")
	if got := k.Row(); string(got[0].Bytes) != "device-1" || got[1].Int != 7 || got[2].Bytes != nil {
		t.Fatalf("held key = %v", got)
	}
	k.Set(s, Row{ltval.NewString("a-longer-device-name"), ltval.NewTimestamp(8), ltval.NewBlob(nil)})
	if s.CompareKeys(k.Row(), Row{ltval.NewString("a-longer-device-name"), ltval.NewTimestamp(8), ltval.Value{}}) != 0 {
		t.Fatalf("replaced key = %v", k.Row())
	}
}
