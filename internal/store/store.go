package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// File layout: an 8-byte magic, a little-endian uint32 format version, then
// CRC-framed record payloads appended in write order. Later frames supersede
// earlier ones with the same fingerprint; compaction rewrites the file with
// exactly one frame per live fingerprint, sorted, via temp-file + rename so
// a crash at any point leaves either the old file or the new one.
var fileMagic = [8]byte{'A', 'P', 'Q', 'S', 'T', 'O', 'R', 'E'}

const (
	headerLen = 12 // magic + version
	frameLen  = 8  // payload length + CRC32 (Castagnoli)

	// maxPayload bounds a frame before allocation — anything larger is a
	// torn or garbage length field, not a record.
	maxPayload = 64 << 20

	// compactMinDead is the floor of superseded bytes below which automatic
	// compaction never triggers, so small stores do not churn the file.
	compactMinDead = 256 << 10
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Store is the embedded convergence store: an in-memory fingerprint index
// over a single append-log file. Safe for concurrent use.
type Store struct {
	mu   sync.Mutex
	path string
	f    *os.File

	recs      map[string]Record
	size      int64 // current file size
	liveBytes int64 // frame bytes of the newest record per fingerprint
	deadBytes int64 // frame bytes superseded by later puts

	lastCompaction time.Time
	migratedFrom   int // pre-migration version, 0 if the file was born current
	closed         bool

	// NoAutoCompact disables the dead-bytes-triggered compaction inside
	// Put; Compact must then be called explicitly. Tests use it to examine
	// log growth.
	NoAutoCompact bool
}

// Open opens or creates the store at path. Files written by older format
// versions are migrated to CurrentFormat (the file is rewritten); files
// written by newer versions are rejected. A torn tail — the residue of a
// crash mid-append — is truncated back to the last intact record.
func Open(path string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", path, err)
	}
	s := &Store{path: path, f: f, recs: make(map[string]Record)}
	if err := s.load(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

func (s *Store) load() error {
	fi, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("store: stat %s: %w", s.path, err)
	}
	if fi.Size() == 0 {
		var hdr [headerLen]byte
		copy(hdr[:], fileMagic[:])
		binary.LittleEndian.PutUint32(hdr[8:], CurrentFormat)
		if _, err := s.f.Write(hdr[:]); err != nil {
			return fmt.Errorf("store: initialize %s: %w", s.path, err)
		}
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("store: initialize %s: %w", s.path, err)
		}
		s.size = headerLen
		return nil
	}

	data, err := io.ReadAll(s.f)
	if err != nil {
		return fmt.Errorf("store: read %s: %w", s.path, err)
	}
	if len(data) < headerLen || [8]byte(data[:8]) != fileMagic {
		return fmt.Errorf("store: %s is not a convergence store (bad magic)", s.path)
	}
	version := int(binary.LittleEndian.Uint32(data[8:12]))
	if version > CurrentFormat {
		return fmt.Errorf("store: %s is format version %d, newer than this build supports (%d) — refusing to modify it", s.path, version, CurrentFormat)
	}
	if version < FormatV1 {
		return fmt.Errorf("store: %s carries invalid format version %d", s.path, version)
	}

	// Scan frames. CRC or framing failure marks a torn tail: everything
	// from that offset on is the residue of an interrupted append and is
	// truncated away. A frame whose CRC matches but whose payload does not
	// decode was written intact by an incompatible writer — that is a real
	// error, not crash residue.
	off := headerLen
	validEnd := headerLen
	for off < len(data) {
		if len(data)-off < frameLen {
			break // torn frame header
		}
		plen := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if plen > maxPayload || len(data)-off-frameLen < int(plen) {
			break // torn or garbage length
		}
		payload := data[off+frameLen : off+frameLen+int(plen)]
		if crc32.Checksum(payload, crcTable) != sum {
			break // torn payload
		}
		rec, err := decodeRecord(payload, version)
		if err != nil {
			return fmt.Errorf("store: %s: record at offset %d has a valid checksum but does not decode (format version %d): %w", s.path, off, version, err)
		}
		fb := int64(frameLen + int(plen))
		if old, ok := s.recs[rec.Fingerprint]; ok {
			s.deadBytes += frameBytes(&old, version)
			s.liveBytes -= frameBytes(&old, version)
		}
		s.recs[rec.Fingerprint] = rec
		s.liveBytes += fb
		off += int(fb)
		validEnd = off
	}
	if validEnd < len(data) {
		if err := s.f.Truncate(int64(validEnd)); err != nil {
			return fmt.Errorf("store: truncate torn tail of %s: %w", s.path, err)
		}
	}
	if _, err := s.f.Seek(int64(validEnd), io.SeekStart); err != nil {
		return fmt.Errorf("store: seek %s: %w", s.path, err)
	}
	s.size = int64(validEnd)

	if version < CurrentFormat {
		// Migrate: decodeRecord already lifted the records to the current
		// in-memory shape with the documented defaults for fields the old
		// version lacked; rewriting the file pins them at CurrentFormat.
		s.migratedFrom = version
		if err := s.compactLocked(); err != nil {
			return fmt.Errorf("store: migrate %s from format v%d: %w", s.path, version, err)
		}
	}
	return nil
}

// frameBytes returns the on-disk frame size a record occupies at version.
func frameBytes(rec *Record, version int) int64 {
	payload, err := encodeRecord(rec, version)
	if err != nil {
		return 0
	}
	return int64(frameLen + len(payload))
}

// Put writes rec, superseding any previous record with the same
// fingerprint. The write is appended and indexed immediately but not
// fsynced — call Sync (or let the Synchronizer batch it).
func (s *Store) Put(rec Record) error {
	if rec.Fingerprint == "" {
		return fmt.Errorf("store: record has no fingerprint")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: %s is closed", s.path)
	}
	if err := s.appendLocked(&rec); err != nil {
		return err
	}
	if !s.NoAutoCompact && s.deadBytes > compactMinDead && s.deadBytes > s.liveBytes {
		return s.compactLocked()
	}
	return nil
}

// PutBatch writes recs in order and fsyncs once — the write-behind
// Synchronizer's sink. It reports how many records were appended before the
// first error.
func (s *Store) PutBatch(recs []Record) (wrote int, err error) {
	for i := range recs {
		if err := s.Put(recs[i]); err != nil {
			return i, err
		}
	}
	return len(recs), s.Sync()
}

func (s *Store) appendLocked(rec *Record) error {
	payload, err := encodeRecord(rec, CurrentFormat)
	if err != nil {
		return err
	}
	frame := make([]byte, frameLen, frameLen+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, crcTable))
	frame = append(frame, payload...)
	if _, err := s.f.Write(frame); err != nil {
		return fmt.Errorf("store: append to %s: %w", s.path, err)
	}
	if old, ok := s.recs[rec.Fingerprint]; ok {
		fb := frameBytes(&old, CurrentFormat)
		s.deadBytes += fb
		s.liveBytes -= fb
	}
	s.recs[rec.Fingerprint] = *rec
	s.size += int64(len(frame))
	s.liveBytes += int64(len(frame))
	return nil
}

// Get returns the live record for a fingerprint.
func (s *Store) Get(fp string) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.recs[fp]
	return rec, ok
}

// Records returns the live records sorted by fingerprint.
func (s *Store) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sortedLocked()
}

func (s *Store) sortedLocked() []Record {
	out := make([]Record, 0, len(s.recs))
	for _, rec := range s.recs {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Fingerprint < out[j].Fingerprint })
	return out
}

// Len returns the number of live records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// Sync flushes appended records to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	return s.f.Sync()
}

// Compact rewrites the file with one frame per live fingerprint, sorted.
// Output is deterministic: two stores holding the same records compact to
// byte-identical files.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: %s is closed", s.path)
	}
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	tmp := s.path + ".compact"
	tf, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	defer os.Remove(tmp) // no-op after the rename succeeds
	var hdr [headerLen]byte
	copy(hdr[:], fileMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], CurrentFormat)
	buf := hdr[:]
	for _, rec := range s.sortedLocked() {
		payload, err := encodeRecord(&rec, CurrentFormat)
		if err != nil {
			tf.Close()
			return fmt.Errorf("store: compact: %w", err)
		}
		var fh [frameLen]byte
		binary.LittleEndian.PutUint32(fh[:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(fh[4:], crc32.Checksum(payload, crcTable))
		buf = append(buf, fh[:]...)
		buf = append(buf, payload...)
	}
	if _, err := tf.Write(buf); err != nil {
		tf.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := tf.Close(); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := os.Rename(tmp, s.path); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	f, err := os.OpenFile(s.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact: reopen: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return fmt.Errorf("store: compact: seek: %w", err)
	}
	s.f.Close()
	s.f = f
	s.size = int64(len(buf))
	s.liveBytes = int64(len(buf) - headerLen)
	s.deadBytes = 0
	s.lastCompaction = time.Now()
	return nil
}

// Close syncs and closes the file. Idempotent: second and later calls are
// no-ops.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	serr := s.f.Sync()
	cerr := s.f.Close()
	if serr != nil {
		return fmt.Errorf("store: close %s: %w", s.path, serr)
	}
	if cerr != nil {
		return fmt.Errorf("store: close %s: %w", s.path, cerr)
	}
	return nil
}

// Path returns the store's file path.
func (s *Store) Path() string { return s.path }

// Stats is the store's observable state for /stats.
type Stats struct {
	// Version is the on-disk format version (always CurrentFormat once
	// open, since Open migrates).
	Version int `json:"version"`
	// Records is the live record count.
	Records int `json:"records"`
	// FileBytes is the log file's current size.
	FileBytes int64 `json:"file_bytes"`
	// DeadBytes is the portion of the file superseded by newer records —
	// reclaimed at the next compaction.
	DeadBytes int64 `json:"dead_bytes"`
	// LastCompactionUnixMs is the wall-clock time of the last compaction in
	// this process (0 = none since open).
	LastCompactionUnixMs int64 `json:"last_compaction_unix_ms,omitempty"`
	// MigratedFromVersion is the format version the file carried before
	// Open migrated it (0 = file was already current).
	MigratedFromVersion int `json:"migrated_from_version,omitempty"`
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Version:             CurrentFormat,
		Records:             len(s.recs),
		FileBytes:           s.size,
		DeadBytes:           s.deadBytes,
		MigratedFromVersion: s.migratedFrom,
	}
	if !s.lastCompaction.IsZero() {
		st.LastCompactionUnixMs = s.lastCompaction.UnixMilli()
	}
	return st
}
