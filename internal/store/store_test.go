package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cost"
)

func testRecord(i int) Record {
	return Record{
		Fingerprint:  fmt.Sprintf("fp-%04d", i),
		DBIdentity:   "tpch:sf=0.5:seed=42",
		Tenant:       "",
		Query:        fmt.Sprintf("tpch:q%d", i),
		PlanBytes:    []byte{0xDE, 0xAD, byte(i)},
		History:      []float64{100, 60, 40, float64(30 + i)},
		Outliers:     []int{2},
		Cores:        8,
		ExtraRuns:    8,
		GMEThreshold: 0.02,
		HasCost:      true,
		CostParams:   cost.Default(),
	}
}

func mustOpen(t *testing.T, path string) *Store {
	t.Helper()
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "conv.store")
	s := mustOpen(t, path)
	for i := 0; i < 10; i++ {
		if err := s.Put(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}

	s2 := mustOpen(t, path)
	defer s2.Close()
	if s2.Len() != 10 {
		t.Fatalf("reopened store has %d records, want 10", s2.Len())
	}
	for i := 0; i < 10; i++ {
		want := testRecord(i)
		got, ok := s2.Get(want.Fingerprint)
		if !ok {
			t.Fatalf("record %s missing after reopen", want.Fingerprint)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record %s mismatch:\n got  %+v\n want %+v", want.Fingerprint, got, want)
		}
	}
}

func TestStoreSupersede(t *testing.T) {
	path := filepath.Join(t.TempDir(), "conv.store")
	s := mustOpen(t, path)
	s.NoAutoCompact = true
	rec := testRecord(1)
	for pass := 0; pass < 5; pass++ {
		rec.History = append(rec.History, float64(pass))
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (later puts supersede)", s.Len())
	}
	got, _ := s.Get(rec.Fingerprint)
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("Get returned a stale version: %+v", got)
	}
	if st := s.Stats(); st.DeadBytes == 0 {
		t.Fatal("superseded records not accounted as dead bytes")
	}
	s.Close()

	// Reopen must surface only the newest version.
	s2 := mustOpen(t, path)
	defer s2.Close()
	got, _ = s2.Get(rec.Fingerprint)
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("reopen returned a stale version: %+v", got)
	}
}

func TestStoreCrashRecoveryTruncatesTornTail(t *testing.T) {
	cases := []struct {
		name string
		tail func(valid []byte) []byte // bytes to append after a valid log
	}{
		{"partial frame header", func([]byte) []byte { return []byte{7, 0} }},
		{"length beyond EOF", func([]byte) []byte {
			var fh [frameLen]byte
			binary.LittleEndian.PutUint32(fh[:], 1<<20)
			return append(fh[:], 1, 2, 3)
		}},
		{"crc mismatch", func([]byte) []byte {
			payload := []byte("garbage payload")
			var fh [frameLen]byte
			binary.LittleEndian.PutUint32(fh[:], uint32(len(payload)))
			binary.LittleEndian.PutUint32(fh[4:], 0xBADC0DE)
			return append(fh[:], payload...)
		}},
		{"torn mid-payload", func(valid []byte) []byte {
			// A genuine half-written frame: re-append the file's own last
			// frame but stop partway through the payload.
			tail := valid[len(valid)-20:]
			return tail
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "conv.store")
			s := mustOpen(t, path)
			for i := 0; i < 3; i++ {
				if err := s.Put(testRecord(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			valid, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tc.tail(valid)); err != nil {
				t.Fatal(err)
			}
			f.Close()

			s2 := mustOpen(t, path)
			if s2.Len() != 3 {
				t.Fatalf("recovered %d records, want 3", s2.Len())
			}
			for i := 0; i < 3; i++ {
				want := testRecord(i)
				if got, ok := s2.Get(want.Fingerprint); !ok || !reflect.DeepEqual(got, want) {
					t.Fatalf("record %s lost or damaged by recovery", want.Fingerprint)
				}
			}
			s2.Close()
			// The torn tail must be physically gone: the file is again
			// byte-identical to the pre-crash log.
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, valid) {
				t.Fatalf("file not truncated to last valid record: %d bytes, want %d", len(after), len(valid))
			}
		})
	}
}

func TestStoreCompactionShrinksAndIsDeterministic(t *testing.T) {
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.store")
	pathB := filepath.Join(dir, "b.store")
	a := mustOpen(t, pathA)
	b := mustOpen(t, pathB)
	a.NoAutoCompact = true
	b.NoAutoCompact = true
	// Same records, inserted in different orders with different supersede
	// churn.
	for i := 0; i < 8; i++ {
		if err := a.Put(testRecord(i)); err != nil {
			t.Fatal(err)
		}
		if err := a.Put(testRecord(i)); err != nil { // churn
			t.Fatal(err)
		}
	}
	for i := 7; i >= 0; i-- {
		if err := b.Put(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	grown := a.Stats().FileBytes
	if err := a.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := b.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.FileBytes >= grown || st.DeadBytes != 0 || st.LastCompactionUnixMs == 0 {
		t.Fatalf("compaction did not shrink/reset: before %d, after %+v", grown, st)
	}
	// Post-compaction store still works and survives reopen.
	if err := a.Put(testRecord(99)); err != nil {
		t.Fatal(err)
	}
	a.Close()
	b.Close()
	ra, _ := os.ReadFile(pathA)
	rb, _ := os.ReadFile(pathB)
	// a has one extra record appended after compaction; compare b against
	// a's compacted prefix.
	if !bytes.Equal(ra[:len(rb)], rb) {
		t.Fatal("same records compacted to different bytes")
	}
	s2 := mustOpen(t, pathA)
	defer s2.Close()
	if s2.Len() != 9 {
		t.Fatalf("post-compaction reopen: %d records, want 9", s2.Len())
	}
}

func TestStoreAutoCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "conv.store")
	s := mustOpen(t, path)
	defer s.Close()
	rec := testRecord(0)
	rec.PlanBytes = make([]byte, 32<<10) // big enough to cross compactMinDead quickly
	for i := 0; i < 40; i++ {
		rec.History[0] = float64(i)
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.LastCompactionUnixMs == 0 {
		t.Fatalf("auto-compaction never triggered: %+v", st)
	}
	// Steady state: dead bytes never exceed the trigger threshold by more
	// than one frame's worth of churn.
	if st.DeadBytes > compactMinDead+2*int64(len(rec.PlanBytes)) {
		t.Fatalf("dead bytes not reclaimed: %+v", st)
	}
}

// writeV1File hand-builds an on-disk store at format v1, as a v1-era daemon
// would have left it.
func writeV1File(t *testing.T, path string, recs ...Record) {
	t.Helper()
	var hdr [headerLen]byte
	copy(hdr[:], fileMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], FormatV1)
	buf := hdr[:]
	for i := range recs {
		payload, err := encodeRecord(&recs[i], FormatV1)
		if err != nil {
			t.Fatal(err)
		}
		var fh [frameLen]byte
		binary.LittleEndian.PutUint32(fh[:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(fh[4:], crc32.Checksum(payload, crcTable))
		buf = append(buf, fh[:]...)
		buf = append(buf, payload...)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestStoreMigratesV1ToV2(t *testing.T) {
	path := filepath.Join(t.TempDir(), "conv.store")
	recs := []Record{testRecord(0), testRecord(1)}
	writeV1File(t, path, recs...)

	s := mustOpen(t, path)
	st := s.Stats()
	if st.MigratedFromVersion != FormatV1 || st.Version != CurrentFormat {
		t.Fatalf("migration not reported: %+v", st)
	}
	for _, want := range recs {
		got, ok := s.Get(want.Fingerprint)
		if !ok {
			t.Fatalf("record %s lost in migration", want.Fingerprint)
		}
		// v1 never recorded tenant/outliers/cost: migration defaults apply.
		if got.Tenant != "" || got.Outliers != nil || got.HasCost {
			t.Fatalf("migrated record carries fields v1 could not store: %+v", got)
		}
		want.Tenant, want.Outliers, want.HasCost, want.CostParams = "", nil, false, cost.Params{}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("migrated record mismatch:\n got  %+v\n want %+v", got, want)
		}
	}
	s.Close()

	// The migration rewrote the file: on disk it is now current, and
	// reopening it is a plain (non-migrating) open.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != CurrentFormat {
		t.Fatalf("file still at version %d after migration", v)
	}
	s2 := mustOpen(t, path)
	defer s2.Close()
	if st := s2.Stats(); st.MigratedFromVersion != 0 || s2.Len() != 2 {
		t.Fatalf("reopen after migration: %+v, %d records", st, s2.Len())
	}
}

func TestStoreRejectsFutureVersionAndForeignFiles(t *testing.T) {
	dir := t.TempDir()

	future := filepath.Join(dir, "future.store")
	var hdr [headerLen]byte
	copy(hdr[:], fileMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], 99)
	if err := os.WriteFile(future, hdr[:], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(future); err == nil {
		t.Fatal("Open accepted a future format version")
	} else if got := err.Error(); !bytes.Contains([]byte(got), []byte("version 99")) {
		t.Fatalf("future-version error does not name the version: %v", err)
	}

	foreign := filepath.Join(dir, "foreign.store")
	if err := os.WriteFile(foreign, []byte("PK\x03\x04 definitely not ours"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(foreign); err == nil {
		t.Fatal("Open accepted a foreign file")
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a := mustOpen(t, filepath.Join(dir, "a.store"))
	defer a.Close()
	for i := 0; i < 6; i++ {
		if err := a.Put(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	exp1 := filepath.Join(dir, "plans.apqx")
	n, err := a.Export(exp1)
	if err != nil || n != 6 {
		t.Fatalf("Export = %d, %v", n, err)
	}

	b := mustOpen(t, filepath.Join(dir, "b.store"))
	defer b.Close()
	if n, err := b.Import(exp1); err != nil || n != 6 {
		t.Fatalf("Import = %d, %v", n, err)
	}
	if !reflect.DeepEqual(a.Records(), b.Records()) {
		t.Fatal("imported store's records differ from exporter's")
	}

	// Export → import → export is bit-identical.
	exp2 := filepath.Join(dir, "plans2.apqx")
	if _, err := b.Export(exp2); err != nil {
		t.Fatal(err)
	}
	d1, _ := os.ReadFile(exp1)
	d2, _ := os.ReadFile(exp2)
	if !bytes.Equal(d1, d2) {
		t.Fatal("export round trip is not bit-identical")
	}
}

func TestImportRejectsCorruptAndForeignFiles(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, filepath.Join(dir, "s.store"))
	defer s.Close()
	if err := s.Put(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	exp := filepath.Join(dir, "plans.apqx")
	if _, err := s.Export(exp); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(exp)
	if err != nil {
		t.Fatal(err)
	}

	write := func(name string, data []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	futureHdr := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(futureHdr[8:], 77)
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0xFF
	truncated := valid[:len(valid)-5]
	trailing := append(append([]byte(nil), valid...), 1, 2, 3)

	cases := map[string]string{
		"foreign magic":  write("x1", []byte("not an export file at all....")),
		"future version": write("x2", futureHdr),
		"corrupt frame":  write("x3", flipped),
		"truncated":      write("x4", truncated),
		"trailing bytes": write("x5", trailing),
	}
	for name, p := range cases {
		if _, err := s.Import(p); err == nil {
			t.Errorf("%s: Import accepted the file", name)
		} else if s.Len() != 1 {
			t.Errorf("%s: failed import mutated the store", name)
		}
	}
	// The future-version error must name both versions.
	if _, err := s.Import(cases["future version"]); err == nil ||
		!bytes.Contains([]byte(err.Error()), []byte("version 77")) {
		t.Fatalf("future-version import error does not name the version: %v", err)
	}
}

func TestImportAcceptsV1Export(t *testing.T) {
	dir := t.TempDir()
	// A v1-era export: same framing, version header 1, v1 payloads.
	rec := testRecord(3)
	payload, err := encodeRecord(&rec, FormatV1)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [exportHeaderLen]byte
	copy(hdr[:], exportMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], FormatV1)
	binary.LittleEndian.PutUint32(hdr[12:], 1)
	var fh [frameLen]byte
	binary.LittleEndian.PutUint32(fh[:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(fh[4:], crc32.Checksum(payload, crcTable))
	p := filepath.Join(dir, "old.apqx")
	if err := os.WriteFile(p, append(append(hdr[:], fh[:]...), payload...), 0o644); err != nil {
		t.Fatal(err)
	}

	s := mustOpen(t, filepath.Join(dir, "s.store"))
	defer s.Close()
	if n, err := s.Import(p); err != nil || n != 1 {
		t.Fatalf("Import v1 export = %d, %v", n, err)
	}
	got, ok := s.Get(rec.Fingerprint)
	if !ok || got.HasCost || got.Tenant != "" || got.Outliers != nil {
		t.Fatalf("v1 import did not apply migration defaults: %+v", got)
	}
}

func TestSynchronizerWriteBehind(t *testing.T) {
	path := filepath.Join(t.TempDir(), "conv.store")
	s := mustOpen(t, path)
	defer s.Close()
	sy := NewSynchronizer(s.PutBatch)
	for i := 0; i < 50; i++ {
		sy.Enqueue(testRecord(i))
	}
	sy.Flush()
	if got := sy.QueueDepth(); got != 0 {
		t.Fatalf("queue depth %d after Flush", got)
	}
	if s.Len() != 50 {
		t.Fatalf("store has %d records after flush, want 50", s.Len())
	}
	if sy.Written() != 50 {
		t.Fatalf("Written = %d, want 50", sy.Written())
	}
	if err := sy.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sy.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	sy.Enqueue(testRecord(99)) // after close: dropped, not a panic
	if s.Len() != 50 {
		t.Fatalf("enqueue after close reached the store")
	}
}

func TestSynchronizerCloseDrains(t *testing.T) {
	path := filepath.Join(t.TempDir(), "conv.store")
	s := mustOpen(t, path)
	sy := NewSynchronizer(s.PutBatch)
	for i := 0; i < 200; i++ {
		sy.Enqueue(testRecord(i))
	}
	if err := sy.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 200 {
		t.Fatalf("Close lost queued records: %d of 200", s.Len())
	}
	s.Close()
	s2 := mustOpen(t, path)
	defer s2.Close()
	if s2.Len() != 200 {
		t.Fatalf("reopen after Close-drain: %d of 200", s2.Len())
	}
}
