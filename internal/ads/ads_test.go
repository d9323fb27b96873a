package ads

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"grub/internal/kvstore"
	"grub/internal/merkle"
	"grub/internal/sim"
)

func rec(key string, st State, val string) Record {
	return Record{Key: key, State: st, Value: []byte(val)}
}

func TestRecordEncodeDecode(t *testing.T) {
	r := rec("ether", R, "150USD")
	got, err := DecodeRecord(r.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != r.Key || got.State != r.State || string(got.Value) != string(r.Value) {
		t.Fatalf("round trip = %+v, want %+v", got, r)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeRecord([]byte{0xff, 0x01}); err == nil {
		t.Fatal("bad state byte accepted")
	}
	if _, err := DecodeRecord(nil); err == nil {
		t.Fatal("empty record accepted")
	}
}

func TestLeafDiffersByState(t *testing.T) {
	a := rec("k", NR, "v").Leaf()
	b := rec("k", R, "v").Leaf()
	if a == b {
		t.Fatal("leaf hash ignores replication state")
	}
}

func TestSetOrderingNRBeforeR(t *testing.T) {
	s := NewSet()
	s.Put(rec("z", NR, "1"))
	s.Put(rec("a", R, "2"))
	s.Put(rec("m", NR, "3"))
	s.Put(rec("b", R, "4"))
	recs := s.Records()
	wantOrder := []string{"m", "z", "a", "b"}
	for i, w := range wantOrder {
		if recs[i].Key != w {
			t.Fatalf("position %d = %s, want %s (layout must be NR group then R group)", i, recs[i].Key, w)
		}
	}
}

func TestPutUpdateAndRelocate(t *testing.T) {
	s := NewSet()
	s.Put(rec("k", NR, "v1"))
	root1 := s.Root()
	prev, existed := s.Put(rec("k", NR, "v2"))
	if !existed || prev != NR {
		t.Fatalf("update: prev=%v existed=%v", prev, existed)
	}
	if s.Root() == root1 {
		t.Fatal("value update did not change root")
	}
	prev, existed = s.Put(rec("k", R, "v3"))
	if !existed || prev != NR {
		t.Fatalf("relocate: prev=%v existed=%v", prev, existed)
	}
	got, ok := s.Get("k")
	if !ok || got.State != R || string(got.Value) != "v3" {
		t.Fatalf("after relocate: %+v ok=%v", got, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after relocation, want 1", s.Len())
	}
}

func TestSetStateRelocates(t *testing.T) {
	s := NewSet()
	s.Put(rec("a", NR, "1"))
	s.Put(rec("b", NR, "2"))
	rootBefore := s.Root()
	if !s.SetState("a", R) {
		t.Fatal("SetState returned false for existing key")
	}
	if s.Root() == rootBefore {
		t.Fatal("state transition did not change root")
	}
	recs := s.Records()
	if recs[0].Key != "b" || recs[1].Key != "a" {
		t.Fatalf("layout after transition: %v, %v", recs[0].Key, recs[1].Key)
	}
	if s.SetState("ghost", R) {
		t.Fatal("SetState returned true for missing key")
	}
}

func TestDeleteChangesRoot(t *testing.T) {
	s := NewSet()
	s.Put(rec("a", NR, "1"))
	s.Put(rec("b", NR, "2"))
	root := s.Root()
	if !s.Delete("a") {
		t.Fatal("Delete existing returned false")
	}
	if s.Root() == root {
		t.Fatal("delete did not change root")
	}
	if s.Delete("a") {
		t.Fatal("Delete missing returned true")
	}
}

func TestProveKeyVerify(t *testing.T) {
	s := NewSet()
	for i := 0; i < 37; i++ {
		st := NR
		if i%3 == 0 {
			st = R
		}
		s.Put(rec(fmt.Sprintf("key-%02d", i), st, fmt.Sprintf("v%d", i)))
	}
	root := s.Root()
	for i := 0; i < 37; i++ {
		key := fmt.Sprintf("key-%02d", i)
		r, p, err := s.ProveKey(key)
		if err != nil {
			t.Fatalf("ProveKey(%s): %v", key, err)
		}
		if err := VerifyRecord(root, r, p); err != nil {
			t.Fatalf("VerifyRecord(%s): %v", key, err)
		}
		// Tampered value must fail.
		bad := r
		bad.Value = []byte("forged")
		if err := VerifyRecord(root, bad, p); !errors.Is(err, merkle.ErrInvalidProof) {
			t.Fatalf("forged value accepted for %s", key)
		}
		// Tampered state must fail: the SP cannot lie about R/NR.
		bad = r
		if bad.State == NR {
			bad.State = R
		} else {
			bad.State = NR
		}
		if err := VerifyRecord(root, bad, p); !errors.Is(err, merkle.ErrInvalidProof) {
			t.Fatalf("forged state accepted for %s", key)
		}
	}
}

func TestProveKeyMissing(t *testing.T) {
	s := NewSet()
	s.Put(rec("a", NR, "1"))
	if _, _, err := s.ProveKey("nope"); err == nil {
		t.Fatal("ProveKey on missing key succeeded")
	}
}

func TestStaleProofRejected(t *testing.T) {
	s := NewSet()
	s.Put(rec("a", NR, "1"))
	s.Put(rec("b", NR, "2"))
	r, p, err := s.ProveKey("a")
	if err != nil {
		t.Fatal(err)
	}
	// Freshness: after an update, the old proof must not verify against
	// the new root (replay attack).
	s.Put(rec("a", NR, "newer"))
	if err := VerifyRecord(s.Root(), r, p); !errors.Is(err, merkle.ErrInvalidProof) {
		t.Fatalf("stale proof accepted after update: %v", err)
	}
}

func TestRangeNR(t *testing.T) {
	s := NewSet()
	for i := 0; i < 20; i++ {
		st := NR
		if i%4 == 0 {
			st = R
		}
		s.Put(rec(fmt.Sprintf("k%02d", i), st, "v"))
	}
	root := s.Root()
	nr, err := s.ProveRangeNR("k03", "k10")
	if err != nil {
		t.Fatal(err)
	}
	// NR keys in [k03,k10]: all except k04, k08 (R): k03,k05,k06,k07,k09,k10.
	want := []string{"k03", "k05", "k06", "k07", "k09", "k10"}
	if len(nr.Records) != len(want) {
		t.Fatalf("ProveRangeNR returned %d records, want %d", len(nr.Records), len(want))
	}
	for i, w := range want {
		if nr.Records[i].Key != w {
			t.Fatalf("records[%d] = %s, want %s", i, nr.Records[i].Key, w)
		}
	}
	if err := VerifyRangeNRAt(root, s.Len(), "k03", "k10", nr); err != nil {
		t.Fatalf("VerifyRangeNRAt: %v", err)
	}
	// Omission attack: drop one record.
	cut := *nr
	cut.Records = cut.Records[1:]
	if err := VerifyRangeNRAt(root, s.Len(), "k03", "k10", &cut); !errors.Is(err, merkle.ErrInvalidProof) {
		t.Fatal("omission accepted")
	}
}

func TestRangeNREmpty(t *testing.T) {
	s := NewSet()
	s.Put(rec("a", R, "1"))
	root := s.Root()
	nr, err := s.ProveRangeNR("a", "z")
	if err != nil {
		t.Fatal(err)
	}
	if len(nr.Records) != 0 {
		t.Fatalf("expected empty NR range, got %d", len(nr.Records))
	}
	if err := VerifyRangeNRAt(root, s.Len(), "a", "z", nr); err != nil {
		t.Fatalf("empty range proof: %v", err)
	}
}

func TestAbsenceProof(t *testing.T) {
	s := NewSet()
	for _, k := range []string{"apple", "cherry", "grape"} {
		s.Put(rec(k, NR, "v"))
	}
	s.Put(rec("mango", R, "v"))
	root := s.Root()
	p, err := s.ProveAbsent("banana")
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAbsent(root, "banana", p); err != nil {
		t.Fatalf("VerifyAbsent: %v", err)
	}
	if p.Size() <= 0 {
		t.Fatal("absence proof size not positive")
	}
	// Proving absence of a present key must fail at construction.
	if _, err := s.ProveAbsent("cherry"); err == nil {
		t.Fatal("ProveAbsent on present key succeeded")
	}
	// And a proof for one key must not verify for a present key.
	if err := VerifyAbsent(root, "cherry", p); err == nil {
		t.Fatal("absence proof transplanted to present key")
	}
}

func TestRootChangesAsSetGrows(t *testing.T) {
	s := NewSet()
	seen := map[merkle.Hash]bool{s.Root(): true}
	for i := 0; i < 9; i++ {
		s.Put(rec(fmt.Sprintf("k%d", i), NR, "v"))
		root := s.Root()
		if seen[root] {
			t.Fatalf("root repeated after insert %d", i)
		}
		seen[root] = true
	}
}

// TestCloneIsStableSnapshot pins the copy-on-write contract publishView
// relies on: a clone is O(1), keeps its root and contents while the original
// mutates, and many clones coexist.
func TestCloneIsStableSnapshot(t *testing.T) {
	s := NewSet()
	for i := 0; i < 50; i++ {
		s.Put(rec(fmt.Sprintf("k%02d", i), NR, "v"))
	}
	frozen := s.Clone()
	root, count := frozen.Root(), frozen.Len()
	s.Put(rec("k00", NR, "changed"))
	s.Delete("k17")
	s.SetState("k31", R)
	if frozen.Root() != root || frozen.Len() != count {
		t.Fatal("clone changed under mutation of the original")
	}
	got, ok := frozen.Get("k00")
	if !ok || string(got.Value) != "v" {
		t.Fatalf("clone sees the original's later write: %+v", got)
	}
	r, p, err := frozen.ProveKey("k17")
	if err != nil || VerifyRecord(root, r, p) != nil {
		t.Fatalf("clone cannot prove a record deleted later: %v", err)
	}
}

func TestDOSPRootAgreement(t *testing.T) {
	// The DO and SP maintain independent Set instances; identical
	// operation sequences must produce identical roots. A set bulk-built
	// from the records (NewSetSorted, the snapshot restore path) must
	// reproduce the same root and proofs.
	f := func(seed uint64) bool {
		do, sp := NewSet(), NewSet()
		r := sim.NewRand(seed)
		for i := 0; i < 200; i++ {
			k := fmt.Sprintf("key-%02d", r.Intn(30))
			switch r.Intn(5) {
			case 0:
				do.Delete(k)
				sp.Delete(k)
			case 1:
				st := State(r.Intn(2))
				do.SetState(k, st)
				sp.SetState(k, st)
			default:
				st := State(r.Intn(2))
				v := fmt.Sprintf("v%d", r.Uint64())
				do.Put(Record{Key: k, State: st, Value: []byte(v)})
				sp.Put(Record{Key: k, State: st, Value: []byte(v)})
			}
			if do.Root() != sp.Root() {
				return false
			}
			bulk, err := NewSetSorted(do.Records())
			if err != nil || bulk.Root() != do.Root() {
				return false
			}
			if do.Len() > 0 {
				k := do.Records()[r.Intn(do.Len())].Key
				_, p1, _ := do.ProveKey(k)
				_, p2, _ := bulk.ProveKey(k)
				if fmt.Sprint(p1) != fmt.Sprint(p2) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestNewSetSortedRejectsBadOrder: the bulk builder takes snapshot input,
// so records out of (state, key) order, repeated, or present in both
// replication groups are refused rather than built into a malformed tree.
func TestNewSetSortedRejectsBadOrder(t *testing.T) {
	for name, recs := range map[string][]Record{
		"descending keys": {rec("b", NR, "1"), rec("a", NR, "2")},
		"repeated key":    {rec("a", NR, "1"), rec("a", NR, "2")},
		"R before NR":     {rec("a", R, "1"), rec("b", NR, "2")},
		"in both groups":  {rec("a", NR, "1"), rec("c", NR, "1"), rec("b", R, "2"), rec("c", R, "3")},
	} {
		if _, err := NewSetSorted(recs); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if s, err := NewSetSorted(nil); err != nil || s.Root() != NewSet().Root() {
		t.Errorf("empty input: %v", err)
	}
}

// Property: every record in a random set proves and verifies; range proofs
// over random NR spans verify.
func TestSetProofProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%60) + 1
		s := NewSet()
		r := sim.NewRand(seed)
		for i := 0; i < n; i++ {
			s.Put(Record{
				Key:   fmt.Sprintf("key-%03d", r.Intn(80)),
				State: State(r.Intn(2)),
				Value: []byte(fmt.Sprintf("%d", r.Uint64())),
			})
		}
		root := s.Root()
		for _, rc := range s.Records() {
			rec2, p, err := s.ProveKey(rc.Key)
			if err != nil || VerifyRecord(root, rec2, p) != nil {
				return false
			}
		}
		lo := fmt.Sprintf("key-%03d", r.Intn(80))
		hi := fmt.Sprintf("key-%03d", r.Intn(80))
		if lo > hi {
			lo, hi = hi, lo
		}
		nr, err := s.ProveRangeNR(lo, hi)
		if err != nil {
			return false
		}
		return VerifyRangeNRAt(root, s.Len(), lo, hi, nr) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSPPersistence(t *testing.T) {
	dir := t.TempDir()
	sp, err := OpenSP(dir, kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		st := NR
		if i%5 == 0 {
			st = R
		}
		if err := sp.Put(rec(fmt.Sprintf("k%02d", i), st, fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.SetState("k01", R); err != nil {
		t.Fatal(err)
	}
	if err := sp.Delete("k02"); err != nil {
		t.Fatal(err)
	}
	root := sp.Set().Root()
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	sp2, err := OpenSP(dir, kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sp2.Close()
	if sp2.Set().Root() != root {
		t.Fatal("root changed across SP restart")
	}
	got, ok := sp2.Set().Get("k01")
	if !ok || got.State != R {
		t.Fatalf("k01 after restart: %+v ok=%v", got, ok)
	}
	if _, ok := sp2.Set().Get("k02"); ok {
		t.Fatal("deleted key resurrected after restart")
	}
}

func TestMemSPBasics(t *testing.T) {
	sp := NewMemSP()
	if err := sp.Put(rec("a", NR, "1")); err != nil {
		t.Fatal(err)
	}
	if err := sp.SetState("missing", R); err == nil {
		t.Fatal("SetState on missing key succeeded")
	}
	if err := sp.Delete("missing"); err != nil {
		t.Fatalf("Delete on missing key: %v", err)
	}
	if err := sp.Close(); err != nil {
		t.Fatalf("Close mem SP: %v", err)
	}
}

func BenchmarkProveKey4096(b *testing.B) {
	s := NewSet()
	for i := 0; i < 4096; i++ {
		s.Put(rec(fmt.Sprintf("key-%05d", i), NR, "value"))
	}
	s.Root()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = s.ProveKey(fmt.Sprintf("key-%05d", i%4096))
	}
}

func BenchmarkPutUpdate4096(b *testing.B) {
	s := NewSet()
	for i := 0; i < 4096; i++ {
		s.Put(rec(fmt.Sprintf("key-%05d", i), NR, "value"))
	}
	s.Root()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put(rec(fmt.Sprintf("key-%05d", i%4096), NR, "value2"))
	}
}
