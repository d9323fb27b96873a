package chain

import (
	"encoding/binary"
	"errors"
	"fmt"

	"grub/internal/binenc"
	"grub/internal/gas"
	"grub/internal/sim"
)

// State is everything on a chain that influences future execution and
// accounting: the per-contract storage, the gas ledgers, the chain position
// and the clock. Registered handlers are code, not state — a restored chain
// re-registers its contracts the same way a fresh one does.
//
// The event log and the internal-call trace are deliberately NOT part of the
// state: they are monitoring streams, consumed through cursors. A restored
// chain starts both streams empty, and every consumer resets its cursor to
// zero, so the (stream, cursor) pairs stay consistent. Nothing in gas
// accounting reads them.
//
// AppendState writes a live chain's state in the binary snapshot format
// and ReadState decodes it into a State; Restore installs a State.
type State struct {
	Now      sim.Time
	Height   uint64
	TotalGas gas.Gas
	TxCount  int
	// GasByContract is the per-contract attribution ledger behind GasOf.
	GasByContract map[Address]gas.Gas
	// Storage holds every contract's storage slots verbatim, so slot
	// existence (and with it the insert-vs-update gas distinction) survives
	// the round trip.
	Storage map[Address]map[string][]byte
}

// ErrNotQuiescent is returned by AppendState when transactions are still in
// the mempool: a snapshot must capture a point between transactions, never
// the middle of one.
var ErrNotQuiescent = errors.New("chain: mempool not empty")

// ErrNotFresh is returned by Restore when the target chain has already
// executed transactions.
var ErrNotFresh = errors.New("chain: restore target already executed transactions")

// PendingTxs returns the number of transactions waiting in the mempool.
func (c *Chain) PendingTxs() int { return len(c.mempool) }

// AppendState appends the chain's state at a quiescent point (empty
// mempool), read straight from the live ledgers:
//
//	varint now | uvarint height | uvarint totalGas | uvarint txCount
//	uvarint n  | n × (string addr | uvarint gas)
//	uvarint n  | n × (string addr | uvarint slots | slots × (string slot | bytes value))
//
// Map order is whatever iteration yields; ReadState does not depend on it.
func (c *Chain) AppendState(dst []byte) ([]byte, error) {
	if len(c.mempool) != 0 {
		return dst, fmt.Errorf("%w: %d pending", ErrNotQuiescent, len(c.mempool))
	}
	dst = binary.AppendVarint(dst, int64(c.clock.Now()))
	dst = binary.AppendUvarint(dst, c.height)
	dst = binary.AppendUvarint(dst, uint64(c.totalGas))
	dst = binary.AppendUvarint(dst, uint64(c.txCount))
	dst = binary.AppendUvarint(dst, uint64(len(c.gasByContract)))
	for addr, g := range c.gasByContract {
		dst = binenc.AppendString(dst, string(addr))
		dst = binary.AppendUvarint(dst, uint64(g))
	}
	dst = binary.AppendUvarint(dst, uint64(len(c.storage)))
	for addr, slots := range c.storage {
		dst = binenc.AppendString(dst, string(addr))
		dst = binary.AppendUvarint(dst, uint64(len(slots)))
		for slot, v := range slots {
			dst = binenc.AppendString(dst, slot)
			dst = binenc.AppendBytes(dst, v)
		}
	}
	return dst, nil
}

// ReadState decodes a state written by AppendState. Errors (truncation, a
// count the input cannot hold, a repeated key) surface through r.Err; the
// storage values alias the reader's input.
func ReadState(r *binenc.Reader) State {
	st := State{
		Now:      sim.Time(r.Varint()),
		Height:   r.Uvarint(),
		TotalGas: gas.Gas(r.Uvarint()),
		TxCount:  r.Int(),
	}
	n := r.Count(2) // string addr + uvarint gas
	st.GasByContract = make(map[Address]gas.Gas)
	for i := 0; i < n; i++ {
		st.GasByContract[Address(r.String())] = gas.Gas(r.Uvarint())
	}
	if len(st.GasByContract) != n {
		r.Fail(errors.New("chain: repeated contract in gas ledger"))
	}
	n = r.Count(2) // string addr + uvarint slot count
	st.Storage = make(map[Address]map[string][]byte)
	for i := 0; i < n && r.Err() == nil; i++ {
		addr := Address(r.String())
		m := r.Count(2) // string slot + bytes value
		slots := make(map[string][]byte)
		for j := 0; j < m; j++ {
			slots[r.String()] = r.Bytes()
		}
		if len(slots) != m {
			r.Fail(errors.New("chain: repeated storage slot"))
		}
		st.Storage[addr] = slots
	}
	if len(st.Storage) != n {
		r.Fail(errors.New("chain: repeated contract in storage"))
	}
	return st
}

// Restore installs a previously captured state onto a freshly constructed
// chain (same params and schedule as the original; the caller guarantees
// that). Contract handlers registered before or after Restore are kept:
// restore replaces state, not code.
func (c *Chain) Restore(st State) error {
	if c.txCount != 0 || c.height != 0 || len(c.mempool) != 0 {
		return ErrNotFresh
	}
	if st.Now < c.clock.Now() {
		return fmt.Errorf("chain: restore: state time %d is before the clock's %d", st.Now, c.clock.Now())
	}
	c.clock.AdvanceTo(st.Now)
	c.height = st.Height
	c.totalGas = st.TotalGas
	c.txCount = st.TxCount
	c.gasByContract = make(map[Address]gas.Gas, len(st.GasByContract))
	for addr, g := range st.GasByContract {
		c.gasByContract[addr] = g
	}
	c.storage = make(map[Address]map[string][]byte, len(st.Storage))
	for addr, slots := range st.Storage {
		cp := make(map[string][]byte, len(slots))
		for slot, v := range slots {
			cp[slot] = append([]byte(nil), v...)
		}
		c.storage[addr] = cp
	}
	return nil
}
