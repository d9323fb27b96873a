// Package binenc holds the primitives of the repository's binary state
// formats (the feed snapshot and the pieces each layer contributes to it):
// append-style encoders and a bounds-checked Reader.
//
// Integers are uvarints (signed ones zigzag varints), byte strings are a
// uvarint length followed by the bytes, and fixed-width fields are
// big-endian. The encoders append to a caller-owned buffer, so a whole
// snapshot is built in one growing slice with no intermediate values.
//
// The Reader is written for untrusted input (bytes from disk or from a
// peer over the network): every length and element count is checked
// against the remaining input before anything is allocated, so a bogus
// varint yields an error, never a huge allocation or a panic. Decoders
// grow their maps and slices as entries decode instead of pre-sizing them
// from a count, so memory stays proportional to the input actually
// consumed. Errors are sticky — after the first one every read returns a
// zero value — so a decoder reads a whole section and checks Err once.
package binenc

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrTruncated is the error of a read past the end of the input.
var ErrTruncated = errors.New("binenc: truncated input")

// AppendBytes appends b with its uvarint length prefix.
func AppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendString appends s with its uvarint length prefix.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBool appends b as one byte (0 or 1).
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// Reader decodes the encodings above from a byte slice. Byte slices it
// returns alias the input.
type Reader struct {
	buf []byte
	err error
}

// NewReader returns a Reader over data.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// Err returns the first error the reader hit, if any.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) }

// Fail records err as the reader's error unless one is already set; later
// reads return zero values. Decoders use it for semantic checks (a bad
// enum value, a duplicate key) so every failure surfaces through Err.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
		r.buf = nil
	}
}

// Finish reports the reader's error, or an error if unread bytes remain.
func (r *Reader) Finish() error {
	if r.err == nil && len(r.buf) != 0 {
		return fmt.Errorf("binenc: %d trailing bytes", len(r.buf))
	}
	return r.err
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if len(r.buf) < 1 {
		r.Fail(ErrTruncated)
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

// Bool reads a byte written by AppendBool; any value but 0 or 1 fails.
func (r *Reader) Bool() bool {
	switch r.Byte() {
	case 0:
		return false
	case 1:
		return true
	}
	r.Fail(errors.New("binenc: bad bool byte"))
	return false
}

// Uint64 reads a fixed-width big-endian uint64.
func (r *Reader) Uint64() uint64 {
	if len(r.buf) < 8 {
		r.Fail(ErrTruncated)
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.Fail(errors.New("binenc: bad uvarint"))
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Varint reads a zigzag-encoded signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.Fail(errors.New("binenc: bad varint"))
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Int reads a uvarint that must fit a non-negative int.
func (r *Reader) Int() int {
	v := r.Uvarint()
	if v > uint64(maxInt) {
		r.Fail(fmt.Errorf("binenc: integer %d overflows int", v))
		return 0
	}
	return int(v)
}

const maxInt = int(^uint(0) >> 1)

// Count reads an element count and checks it against the remaining input:
// each element encodes to at least minSize bytes, so a count the input
// cannot hold fails here, before the caller loops over it.
func (r *Reader) Count(minSize int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if minSize < 1 {
		minSize = 1
	}
	if n > uint64(len(r.buf)/minSize) {
		r.Fail(fmt.Errorf("binenc: count %d exceeds the %d bytes left", n, len(r.buf)))
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte string. The result aliases the input
// (nil for an empty string).
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)) {
		r.Fail(fmt.Errorf("binenc: length %d exceeds the %d bytes left", n, len(r.buf)))
		return nil
	}
	if n == 0 {
		return nil
	}
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

// Fixed reads exactly n raw bytes, aliasing the input.
func (r *Reader) Fixed(n int) []byte {
	if len(r.buf) < n {
		r.Fail(ErrTruncated)
		return nil
	}
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

// String reads a length-prefixed string (copied out of the input).
func (r *Reader) String() string { return string(r.Bytes()) }
