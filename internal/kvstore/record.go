package kvstore

import (
	"encoding/binary"
	"fmt"
)

// Typed record codec: a small framing for values stored by durability
// layers on top of the engine (the shard persister keeps a feed's op log
// and its state snapshots in one DB). Each value carries a kind tag and a
// sequence number so readers can dispatch without sniffing payloads:
//
//	kind (1B) | seq (8B, big-endian) | payload
//
// The codec is deliberately independent of what the payload means; callers
// define their own kinds above RecordReserved.

// RecordKind tags a typed record value.
type RecordKind uint8

const (
	// RecordOps is an applied op batch in a feed's durable log.
	RecordOps RecordKind = 1
	// RecordSnapshot is a serialized feed-state snapshot plus its
	// persistence metadata; it supersedes every log record with seq at or
	// below its own.
	RecordSnapshot RecordKind = 2
	// RecordReserved is the first kind value available to other callers.
	RecordReserved RecordKind = 16
)

// recordHeaderLen is the encoded size of the kind tag and sequence number.
const recordHeaderLen = 9

// EncodeRecord frames payload as a typed record value.
func EncodeRecord(kind RecordKind, seq uint64, payload []byte) []byte {
	buf := AppendRecordHeader(make([]byte, 0, recordHeaderLen+len(payload)), kind, seq)
	return append(buf, payload...)
}

// AppendRecordHeader appends a typed record's kind tag and sequence number
// to dst; the caller appends the payload after it. Large payloads are built
// in place this way instead of being copied by EncodeRecord.
func AppendRecordHeader(dst []byte, kind RecordKind, seq uint64) []byte {
	dst = append(dst, byte(kind))
	return binary.BigEndian.AppendUint64(dst, seq)
}

// DecodeTypedRecord splits a typed record value into its parts. The payload
// aliases data.
func DecodeTypedRecord(data []byte) (kind RecordKind, seq uint64, payload []byte, err error) {
	if len(data) < recordHeaderLen {
		return 0, 0, nil, fmt.Errorf("kvstore: typed record too short (%d bytes)", len(data))
	}
	if data[0] == 0 {
		return 0, 0, nil, fmt.Errorf("kvstore: typed record kind 0")
	}
	return RecordKind(data[0]), binary.BigEndian.Uint64(data[1:recordHeaderLen]), data[recordHeaderLen:], nil
}

// Checkpoint is the snapshot API callers use after installing a new durable
// snapshot: it forces the memtable to disk and compacts every level into
// one, so the store's on-disk footprint collapses to (roughly) the live
// state and the WAL restarts empty. Reopening after Checkpoint replays no
// log.
func (db *DB) Checkpoint() error {
	if err := db.Flush(); err != nil {
		return err
	}
	return db.Compact()
}
