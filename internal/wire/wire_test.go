package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
	"testing/iotest"
)

// The codec is held to encoding/json where its callers are — the
// differential fuzz targets and generated-value tests of internal/serve
// and client — and to itself in codec_test.go. What is tested here is
// what those cannot see: number spellings one by one, and the body
// reader.

func TestScannerNumbersFollowJSON(t *testing.T) {
	for _, in := range []string{
		"0", "-0", "7", "-7", "10", "9223372036854775807", "-9223372036854775808", "9223372036854775808",
		"01", "-01", "+1", "1.", ".5", "1.5", "-1.5e3", "1e2", "1E+2", "1e-2", "1e", "1e+", "0x10", "1_000",
		"1e400", "-1e400", "4.9e-324", "1e-400", "Inf", "NaN", "-", "", "0.0", "-0.0", "00", "1 ", " 1", "1a",
	} {
		var wantI int64
		errI := json.Unmarshal([]byte(in), &wantI)
		s := Scan([]byte(in))
		if gotI := s.Int64(); s.Done() {
			if errI != nil || gotI != wantI {
				t.Errorf("Int64(%q) = %d; json: %d, %v", in, gotI, wantI, errI)
			}
		}
		var wantF float64
		errF := json.Unmarshal([]byte(in), &wantF)
		s = Scan([]byte(in))
		if gotF := s.Float64(); s.Done() {
			if errF != nil || math.Float64bits(gotF) != math.Float64bits(wantF) {
				t.Errorf("Float64(%q) = %v; json: %v, %v", in, gotF, wantF, errF)
			}
		} else if errF == nil {
			// Not a requirement — declining is always allowed — but every
			// number json takes for a float64 is canonical.
			t.Errorf("Float64(%q) declined; json reads %v", in, wantF)
		}
	}
}

func TestReadAllAndReplay(t *testing.T) {
	body := strings.Repeat("0123456789", 1000)
	failure := errors.New("connection reset")
	for _, size := range []int64{-1, 0, 1, int64(len(body)) - 1, int64(len(body)), int64(len(body)) + 1, 1 << 40} {
		for name, r := range map[string]io.Reader{
			"whole":    strings.NewReader(body),
			"one byte": iotest.OneByteReader(strings.NewReader(body)),
			"data+EOF": iotest.DataErrReader(strings.NewReader(body)),
		} {
			got, err := ReadAll([]byte("kept"), r, size)
			if err != nil || string(got) != "kept"+body {
				t.Errorf("ReadAll(%s, size %d) = %d bytes, %v", name, size, len(got), err)
			}
		}

		// A read that fails part-way keeps what arrived, and Replay hands a
		// decoder the same bytes and then the same failure.
		broken := io.MultiReader(strings.NewReader(body[:2500]), iotest.ErrReader(failure))
		got, err := ReadAll(nil, broken, size)
		if err != failure || string(got) != body[:2500] {
			t.Fatalf("ReadAll(broken, size %d) = %d bytes, %v", size, len(got), err)
		}
		replayed, err := io.ReadAll(&Replay{Data: got, Err: err})
		if err != failure || !bytes.Equal(replayed, got) {
			t.Errorf("Replay after a failed read = %d bytes, %v", len(replayed), err)
		}
	}
	replayed, err := io.ReadAll(&Replay{Data: []byte(body)})
	if err != nil || string(replayed) != body {
		t.Errorf("Replay of a whole body = %d bytes, %v", len(replayed), err)
	}
}

func TestBufferPoolDropsGiants(t *testing.T) {
	bp := GetBuffer()
	if len(*bp) != 0 {
		t.Fatalf("fresh buffer has %d bytes", len(*bp))
	}
	*bp = append(*bp, "answer"...)
	PutBuffer(bp)
	if bp = GetBuffer(); len(*bp) != 0 {
		t.Errorf("recycled buffer still holds %q", *bp)
	}
	PutBuffer(bp)

	giant := make([]byte, 0, 2*maxPooled)
	PutBuffer(&giant)
	for i := 0; i < 100; i++ {
		if bp := GetBuffer(); cap(*bp) > maxPooled {
			t.Fatalf("pool handed back a %d-byte buffer", cap(*bp))
		}
	}
}
