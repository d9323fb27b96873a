package policy

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"grub/internal/ads"
	"grub/internal/binenc"
)

// Snapshotter is implemented by policies whose decisions depend on
// accumulated state. AppendState appends that state, in the policy's own
// binary layout, to dst; RestoreState installs state written by
// AppendState into a policy constructed with the same parameters, after
// which the policy makes exactly the decisions the original would have.
// RestoreState copies what it keeps, so data may be reused afterwards.
//
// The static baselines (Never, Always) are stateless and do not implement
// the interface; persistence layers treat a non-Snapshotter policy as having
// empty state.
type Snapshotter interface {
	AppendState(dst []byte) []byte
	RestoreState(data []byte) error
}

// AppendState implements Snapshotter. Observe gives every key it sees both
// a state and a counter, so they share one entry (a missing counter reads
// as 0, exactly as Observe treats it):
//
//	uvarint n | n × (string key | state byte | uvarint count)
func (m *Memoryless) AppendState(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m.states)))
	for k, st := range m.states {
		dst = binenc.AppendString(dst, k)
		dst = append(dst, byte(st))
		dst = binary.AppendUvarint(dst, uint64(m.count[k]))
	}
	return dst
}

// RestoreState implements Snapshotter.
func (m *Memoryless) RestoreState(data []byte) error {
	r := binenc.NewReader(data)
	n := r.Count(3) // string key + state byte + count
	states := make(map[string]ads.State)
	count := make(map[string]int)
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.String()
		states[k] = ads.ReadState(r)
		count[k] = r.Int()
	}
	if len(states) != n {
		r.Fail(errors.New("repeated key"))
	}
	if err := r.Finish(); err != nil {
		return fmt.Errorf("policy: restore memoryless: %w", err)
	}
	m.count, m.states = count, states
	return nil
}

// AppendState implements Snapshotter: the three per-key maps in turn, the
// counters as float64 bits.
//
//	uvarint n | n × (string key | uint64 rCount bits)
//	uvarint n | n × (string key | uint64 wCount bits)
//	uvarint n | n × (string key | state byte)
func (m *Memorizing) AppendState(dst []byte) []byte {
	dst = appendFloats(dst, m.rCount)
	dst = appendFloats(dst, m.wCount)
	dst = binary.AppendUvarint(dst, uint64(len(m.states)))
	for k, st := range m.states {
		dst = binenc.AppendString(dst, k)
		dst = append(dst, byte(st))
	}
	return dst
}

// RestoreState implements Snapshotter.
func (m *Memorizing) RestoreState(data []byte) error {
	r := binenc.NewReader(data)
	rCount := readFloats(r)
	wCount := readFloats(r)
	n := r.Count(2) // string key + state byte
	states := make(map[string]ads.State)
	for i := 0; i < n && r.Err() == nil; i++ {
		states[r.String()] = ads.ReadState(r)
	}
	if len(states) != n {
		r.Fail(errors.New("repeated key"))
	}
	if err := r.Finish(); err != nil {
		return fmt.Errorf("policy: restore memorizing: %w", err)
	}
	m.rCount, m.wCount, m.states = rCount, wCount, states
	return nil
}

func appendFloats(dst []byte, fs map[string]float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(fs)))
	for k, v := range fs {
		dst = binenc.AppendString(dst, k)
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

func readFloats(r *binenc.Reader) map[string]float64 {
	n := r.Count(9) // string key + 8-byte float
	fs := make(map[string]float64)
	for i := 0; i < n && r.Err() == nil; i++ {
		fs[r.String()] = math.Float64frombits(r.Uint64())
	}
	if len(fs) != n {
		r.Fail(errors.New("repeated key"))
	}
	return fs
}

var (
	_ Snapshotter = (*Memoryless)(nil)
	_ Snapshotter = (*Memorizing)(nil)
)
