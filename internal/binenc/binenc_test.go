package binenc

import (
	"encoding/binary"
	"math"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var b []byte
	b = binary.AppendUvarint(b, 300)
	b = binary.AppendVarint(b, -7)
	b = AppendString(b, "key")
	b = AppendBytes(b, nil)
	b = AppendBool(b, true)
	b = binary.BigEndian.AppendUint64(b, math.MaxUint64)
	b = append(b, 9, 8)

	r := NewReader(b)
	if v := r.Uvarint(); v != 300 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := r.Varint(); v != -7 {
		t.Errorf("Varint = %d", v)
	}
	if v := r.String(); v != "key" {
		t.Errorf("String = %q", v)
	}
	if v := r.Bytes(); v != nil {
		t.Errorf("empty Bytes = %v, want nil", v)
	}
	if !r.Bool() {
		t.Error("Bool = false")
	}
	if v := r.Uint64(); v != math.MaxUint64 {
		t.Errorf("Uint64 = %d", v)
	}
	if v := r.Fixed(2); len(v) != 2 || v[0] != 9 {
		t.Errorf("Fixed = %v", v)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderRefusesBogusInput pins the untrusted-input contract: lengths
// and counts larger than the remaining input, truncation, out-of-range
// values and trailing bytes fail with an error, and the error is sticky.
func TestReaderRefusesBogusInput(t *testing.T) {
	huge := binary.AppendUvarint(nil, math.MaxUint64)
	cases := map[string]func(r *Reader){
		"count beyond input":  func(r *Reader) { r.Count(1) },
		"length beyond input": func(r *Reader) { r.Bytes() },
		"int overflow":        func(r *Reader) { r.Int() },
		"truncated uint64":    func(r *Reader) { r.Uint64() },
		"truncated fixed":     func(r *Reader) { r.Fixed(len(huge) + 1) },
		"bad bool":            func(r *Reader) { r.Bool() },
		"trailing bytes":      func(r *Reader) { r.Byte() },
	}
	for name, read := range cases {
		t.Run(name, func(t *testing.T) {
			r := NewReader(huge)
			read(r)
			if err := r.Finish(); err == nil {
				t.Fatal("bogus input accepted")
			}
			if r.Err() != nil && (r.Uvarint() != 0 || r.Bytes() != nil || r.Len() != 0) {
				t.Error("reads after an error return data")
			}
		})
	}
	if r := NewReader([]byte{0x80}); r.Uvarint() != 0 || r.Err() == nil {
		t.Error("unterminated uvarint accepted")
	}
}
