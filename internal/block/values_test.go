package block

import "littletable/internal/ltval"

// The codec tests and fuzz targets check decoded cells as ltval values;
// these adapters expand the typed vectors the column readers produce.

func values(col column, n int, err error) ([]ltval.Value, error) {
	if err != nil {
		return nil, err
	}
	out := make([]ltval.Value, n)
	for i := range out {
		out[i] = col.value(i)
	}
	return out, nil
}

func decodeColumn(t ltval.Type, codec Codec, enc []byte, n int) ([]ltval.Value, error) {
	col, err := readColumn(t, codec, enc, n)
	return values(col, n, err)
}

func decodePlain(t ltval.Type, enc []byte, n int) ([]ltval.Value, error) {
	col, err := readPlain(t, enc, n)
	return values(col, n, err)
}

func decodeDelta(t ltval.Type, enc []byte, n int) ([]ltval.Value, error) {
	col, err := readDelta(t, enc, n)
	return values(col, n, err)
}

func decodeXOR(enc []byte, n int) ([]ltval.Value, error) {
	col, err := readXOR(enc, n)
	return values(col, n, err)
}

func decodeDict(t ltval.Type, enc []byte, n int) ([]ltval.Value, error) {
	col, err := readDict(t, enc, n)
	return values(col, n, err)
}

func decodeLZF(t ltval.Type, enc []byte, n int) ([]ltval.Value, error) {
	col, err := readLZF(t, enc, n)
	return values(col, n, err)
}
