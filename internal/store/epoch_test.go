package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// writeLegacyFile hand-builds an on-disk store at an older format version, as
// a daemon of that era would have left it.
func writeLegacyFile(t *testing.T, path string, version int, recs ...Record) {
	t.Helper()
	var hdr [headerLen]byte
	copy(hdr[:], fileMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], uint32(version))
	buf := hdr[:]
	for i := range recs {
		payload, err := encodeRecord(&recs[i], version)
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

// TestStoreMigratesV2ToV3: a v2-era file opens, reports the migration, and
// its records carry the documented epoch default 0 — a freshly generated
// dataset — at v3 on disk.
func TestStoreMigratesV2ToV3(t *testing.T) {
	path := filepath.Join(t.TempDir(), "conv.store")
	recs := []Record{testRecord(0), testRecord(1)}
	writeLegacyFile(t, path, FormatV2, recs...)

	s := mustOpen(t, path)
	st := s.Stats()
	if st.MigratedFromVersion != FormatV2 || st.Version != CurrentFormat {
		t.Fatalf("migration not reported: %+v", st)
	}
	for _, want := range recs {
		got, ok := s.Get(want.Fingerprint)
		if !ok {
			t.Fatalf("record %s lost in migration", want.Fingerprint)
		}
		if got.Epoch != 0 {
			t.Fatalf("migrated record carries epoch %d, want the default 0", got.Epoch)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("migrated record mismatch:\n got  %+v\n want %+v", got, want)
		}
	}
	s.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != FormatV3 {
		t.Fatalf("file at version %d after migration, want %d", v, FormatV3)
	}
}

// TestStoreEpochRoundTrip: a non-zero epoch survives put, reopen, and
// compaction.
func TestStoreEpochRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "conv.store")
	s := mustOpen(t, path)
	rec := testRecord(0)
	rec.Epoch = 7
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := mustOpen(t, path)
	defer s2.Close()
	got, ok := s2.Get(rec.Fingerprint)
	if !ok {
		t.Fatal("record lost")
	}
	if got.Epoch != 7 {
		t.Fatalf("epoch = %d, want 7", got.Epoch)
	}
}

// TestCompactionRacesSynchronizer hammers the store with concurrent
// synchronizer batches, direct puts, and explicit compactions. Run under
// -race this pins the locking discipline between the write-behind path and
// compaction; afterwards every fingerprint must hold its newest epoch.
func TestCompactionRacesSynchronizer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "conv.store")
	s := mustOpen(t, path)
	s.NoAutoCompact = true // compaction timing is driven explicitly below
	sy := NewSynchronizer(s.PutBatch)

	const fps = 16
	const rounds = 40
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			for i := 0; i < fps; i += 2 {
				rec := testRecord(i)
				rec.Epoch = int64(r)
				sy.Enqueue(rec)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			for i := 1; i < fps; i += 2 {
				rec := testRecord(i)
				rec.Epoch = int64(r)
				if err := s.Put(rec); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for r := 0; r < rounds/2; r++ {
			if err := s.Compact(); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	sy.Flush()
	if err := sy.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != fps {
		t.Fatalf("store holds %d records, want %d", s.Len(), fps)
	}
	// Puts of each parity stream are ordered, so the live record per
	// fingerprint must carry the final round's epoch.
	for i := 0; i < fps; i++ {
		rec, ok := s.Get(fmt.Sprintf("fp-%04d", i))
		if !ok || rec.Epoch != rounds-1 {
			t.Fatalf("fp-%04d: ok=%v epoch=%d, want %d", i, ok, rec.Epoch, rounds-1)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the compacted+appended file must load every record.
	s2 := mustOpen(t, path)
	defer s2.Close()
	if s2.Len() != fps {
		t.Fatalf("reopened store holds %d records, want %d", s2.Len(), fps)
	}
}

// TestTornTailAfterCrashMidCompaction simulates a crash between compaction's
// temp-file write and the rename — plus a torn append on the original file —
// and verifies recovery: the .compact residue is ignored and the torn tail
// truncated back to the last intact record.
func TestTornTailAfterCrashMidCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "conv.store")
	s := mustOpen(t, path)
	s.NoAutoCompact = true
	for i := 0; i < 4; i++ {
		if err := s.Put(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash residue 1: a half-written compaction temp file.
	if err := os.WriteFile(path+".compact", []byte("APQSTORE torn compaction residue"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Crash residue 2: a torn append on the log itself — a frame header
	// promising more payload than exists.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var fh [frameLen]byte
	binary.LittleEndian.PutUint32(fh[:], 1<<20)
	if _, err := f.Write(fh[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("partial")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := mustOpen(t, path)
	if s2.Len() != 4 {
		t.Fatalf("recovered %d records, want 4", s2.Len())
	}
	// The store must remain fully writable and compactable after recovery.
	rec := testRecord(9)
	rec.Epoch = 3
	if err := s2.Put(rec); err != nil {
		t.Fatal(err)
	}
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := mustOpen(t, path)
	defer s3.Close()
	if s3.Len() != 5 {
		t.Fatalf("post-recovery store holds %d records, want 5", s3.Len())
	}
}
