package ads

import (
	"fmt"

	"grub/internal/kvstore"
)

// SP is the storage-provider side of the ADS protocol: the authenticated
// in-memory Set used to answer proofs, backed by a durable kvstore.DB (the
// paper's Google LevelDB instance). The SP is the adversary of the trust
// model; nothing it returns is believed without a proof, but an honest SP
// must also survive restarts, hence the persistent engine underneath.
type SP struct {
	set *Set
	db  *kvstore.DB
}

// OpenSP opens (or creates) an SP store backed by the LSM engine at dir and
// loads all persisted records into the authenticated set.
func OpenSP(dir string, opts kvstore.Options) (*SP, error) {
	db, err := kvstore.Open(dir, opts)
	if err != nil {
		return nil, fmt.Errorf("ads: open sp store: %w", err)
	}
	sp := &SP{set: NewSet(), db: db}
	for it := db.NewIterator(); it.Valid(); it.Next() {
		rec, err := DecodeRecord(it.Value())
		if err != nil {
			return nil, fmt.Errorf("ads: corrupt persisted record %q: %w", it.Key(), err)
		}
		sp.set.Put(rec)
	}
	return sp, nil
}

// NewMemSP returns an SP without a persistent backend, for simulations where
// durability is irrelevant (most Gas experiments).
func NewMemSP() *SP { return &SP{set: NewSet()} }

// Set exposes the authenticated set (read-mostly helpers for tests and the
// watchdog).
func (sp *SP) Set() *Set { return sp.set }

// Load replaces the SP's record set with set — an O(1) frozen clone, so the
// SP shares set's immutable nodes — and writes every record to the backend
// in one batch when one is attached. Snapshot restore uses it to install
// the record set the DO side already built.
func (sp *SP) Load(set *Set) error {
	sp.set = set.Clone()
	if sp.db == nil {
		return nil
	}
	b := kvstore.NewBatch()
	for rec := range set.All() {
		b.Put([]byte(rec.Key), rec.Encode())
	}
	if err := sp.db.Write(b); err != nil {
		return fmt.Errorf("ads: persist loaded set: %w", err)
	}
	return nil
}

// Put applies a record write, persisting it if a backend is attached.
func (sp *SP) Put(rec Record) error {
	sp.set.Put(rec)
	if sp.db != nil {
		if err := sp.db.Put([]byte(rec.Key), rec.Encode()); err != nil {
			return fmt.Errorf("ads: persist %q: %w", rec.Key, err)
		}
	}
	return nil
}

// SetState relocates a record between the NR and R groups.
func (sp *SP) SetState(key string, st State) error {
	if !sp.set.SetState(key, st) {
		return fmt.Errorf("ads: set state of missing key %q", key)
	}
	if sp.db != nil {
		rec, _ := sp.set.Get(key)
		if err := sp.db.Put([]byte(key), rec.Encode()); err != nil {
			return fmt.Errorf("ads: persist state of %q: %w", key, err)
		}
	}
	return nil
}

// Delete removes a record.
func (sp *SP) Delete(key string) error {
	if !sp.set.Delete(key) {
		return nil
	}
	if sp.db != nil {
		if err := sp.db.Delete([]byte(key)); err != nil {
			return fmt.Errorf("ads: delete %q: %w", key, err)
		}
	}
	return nil
}

// Close releases the persistent backend, if any.
func (sp *SP) Close() error {
	if sp.db == nil {
		return nil
	}
	return sp.db.Close()
}
