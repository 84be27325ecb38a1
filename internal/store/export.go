package store

import (
	"encoding/binary"
	"fmt"
	"os"

	"repro/internal/wire"
)

// Export files are the plan-shipping interchange format: a self-describing
// snapshot of a store's live records that a second daemon imports to serve
// another daemon's converged plans. Layout: 8-byte magic, uint32 record
// format version, uint32 record count, then the records as CRC frames
// sorted by fingerprint. The sort plus the deterministic record codec make
// export → import → export reproduce the file bit-for-bit.
var exportMagic = [8]byte{'A', 'P', 'Q', 'X', 'P', 'O', 'R', 'T'}

const exportHeaderLen = 16 // magic + version + count

// EncodeRecords renders records as an APQXPORT document in memory — the
// same bytes Export writes to disk. It is the federation layer's wire
// format: a replicator encodes a batch of convergence records once and
// ships the document to every peer. Records are encoded in the order given;
// callers wanting the deterministic on-disk property sort by fingerprint
// first (Export does).
func EncodeRecords(recs []Record) []byte {
	var hdr [exportHeaderLen]byte
	copy(hdr[:], exportMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], CurrentFormat)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(recs)))
	buf := hdr[:]
	for i := range recs {
		buf = appendFrame(buf, &recs[i])
	}
	return buf
}

// DecodeRecords parses an APQXPORT document from memory — the receiving
// side of EncodeRecords. src names the document in errors (a path, a peer).
// Framing or checksum damage is an error, never a silent skip; a document
// at the previous format version migrates, older and newer ones are refused.
func DecodeRecords(data []byte, src string) ([]Record, error) {
	if len(data) < exportHeaderLen || [8]byte(data[:8]) != exportMagic {
		return nil, fmt.Errorf("store: %s is not a plan export file (bad magic)", src)
	}
	version := int(binary.LittleEndian.Uint32(data[8:12]))
	if err := checkVersion(src, version); err != nil {
		return nil, err
	}
	count := int(binary.LittleEndian.Uint32(data[12:16]))
	// Cap the allocation by what the bytes in hand could actually frame: a
	// hostile header may claim 4 billion records in a 20-byte document.
	maxFit := (len(data) - exportHeaderLen) / frameLen
	recs := make([]Record, 0, min(count, maxFit))
	r := wire.NewReader(data[exportHeaderLen:])
	for i := 0; i < count; i++ {
		payload, err := readFrame(r)
		if err != nil {
			return nil, fmt.Errorf("store: %s: record %d of %d: %w", src, i+1, count, err)
		}
		rec, err := decodeRecord(payload, version)
		if err != nil {
			return nil, fmt.Errorf("store: %s: record %d of %d does not decode at format version %d: %w", src, i+1, count, version, err)
		}
		recs = append(recs, rec)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("store: %s: %d trailing bytes after %d records", src, r.Len(), count)
	}
	return recs, nil
}

// Export writes the store's live records to path, atomically (temp file +
// rename). It returns the number of records written.
func (s *Store) Export(path string) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("store: %s is closed", s.path)
	}
	recs := s.sortedLocked()
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, EncodeRecords(recs), 0o644); err != nil {
		return 0, fmt.Errorf("store: export: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("store: export: %w", err)
	}
	return len(recs), nil
}

// Import merges the records of an export file written at this build's
// format version or the previous one (its records are migrated on decode).
// Unlike the append log, an export file is a finished document: foreign
// magic, a refused version, any framing or checksum damage, or a record
// count that does not match the header is an error, never silently skipped
// or truncated. Imported records supersede same-fingerprint records already
// in the store. Returns the number of records imported.
func (s *Store) Import(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("store: import %s: %w", path, err)
	}
	recs, err := DecodeRecords(data, path)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("store: %s is closed", s.path)
	}
	for i := range recs {
		if err := s.appendLocked(&recs[i]); err != nil {
			return 0, err
		}
	}
	if err := s.f.Sync(); err != nil {
		return 0, fmt.Errorf("store: import: %w", err)
	}
	return len(recs), nil
}
