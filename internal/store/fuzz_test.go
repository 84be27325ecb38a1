package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"repro/internal/cost"
)

// Fuzz targets for the store's two decoders. The properties under test are
// the contracts the append log and the replication path both rely on:
// hostile bytes — including bytes whose CRC framing is perfectly valid —
// must come back as an error, never a panic or a runaway allocation (the CRC
// only protects against corruption in flight; a malicious or buggy peer can
// frame anything), and whatever decodes is canonical: re-encoding it at its
// own version reproduces the input, so one record has one byte string.

// paddedVarint re-encodes the leading one-byte uvarint of payload (the
// fingerprint's length) as a padded two-byte one: the same value, a byte
// string no writer produces, which a decoder must refuse.
func paddedVarint(payload []byte) []byte {
	return append([]byte{payload[0] | 0x80, 0}, payload[1:]...)
}

// fuzzSeedRecord is a fully populated current-format record whose encoding
// seeds both corpora.
func fuzzSeedRecord() Record {
	return Record{
		Fingerprint:  "fp-fuzz-0001",
		DBIdentity:   "tpch:sf=0.5:seed=42",
		Tenant:       "acme",
		Query:        "tpch:q6",
		PlanBytes:    []byte{0xDE, 0xAD, 0xBE, 0xEF},
		History:      []float64{100, 60, 40, 31},
		Outliers:     []int{2},
		Start:        1,
		Cores:        8,
		ExtraRuns:    8,
		GMEThreshold: 0.02,
		CostParams:   cost.Default(),
		Epoch:        3,
	}
}

// FuzzDecodeRecord drives the per-record payload decoder — the bytes inside
// one CRC frame, after the checksum already passed — at both readable
// format versions. Valid-looking length prefixes pointing past the buffer, huge
// varint counts, and truncated tails must all error cleanly.
func FuzzDecodeRecord(f *testing.F) {
	rec := fuzzSeedRecord()
	for _, v := range []int{FormatV3, CurrentFormat} {
		payload := encodeRecord(&rec, v)
		f.Add(payload, v)
		// Truncation seeds: every prefix family the reader walks through.
		f.Add(payload[:len(payload)/2], v)
		f.Add(payload[:1], v)
		f.Add(paddedVarint(payload), v)
	}
	// Seeds one byte away from what the format rules refuse: a v3 record
	// without a cost calibration (its flag sits before the cost fields and
	// the one-byte epoch), a v4 record with an unknown halt reason or a
	// start past its history (the last two bytes), and v3 bytes read as v4.
	edit := func(v, at int, b byte) []byte {
		p := encodeRecord(&rec, v)
		p[len(p)-at] = b
		return p
	}
	f.Add(edit(FormatV3, 2+8*len(costFields(&rec.CostParams)), 0), FormatV3)
	f.Add(edit(CurrentFormat, 1, 1), CurrentFormat)
	f.Add(edit(CurrentFormat, 2, byte(len(rec.History))), CurrentFormat)
	f.Add(encodeRecord(&rec, FormatV3), CurrentFormat)
	f.Add([]byte{}, CurrentFormat)
	f.Fuzz(func(t *testing.T, data []byte, version int) {
		rec, err := decodeRecord(data, version)
		if err != nil {
			return
		}
		// A payload that decodes must re-encode to itself: decode success
		// on bytes the encoder cannot reproduce would give one record two
		// byte strings, or let one hostile peer poison the next hop's store
		// file.
		re := encodeRecord(&rec, version)
		if !bytes.Equal(re, data) {
			t.Fatalf("decode accepted a non-canonical v%d record: %d bytes in, %d bytes re-encoded", version, len(data), len(re))
		}
	})
}

// FuzzDecodeExport drives the whole-document APQXPORT decoder two ways: the
// raw input as a full document (hostile magic, header, framing), and the
// input wrapped in a valid header and a correct CRC frame (CRC-valid-but-
// hostile payload — the case checksums cannot catch).
func FuzzDecodeExport(f *testing.F) {
	rec := fuzzSeedRecord()
	doc := EncodeRecords([]Record{rec})
	f.Add(doc)
	f.Add(doc[:len(doc)-3])
	f.Add(doc[:exportHeaderLen])
	f.Add([]byte("APQXPORT"))
	f.Add([]byte{})
	payload := encodeRecord(&rec, CurrentFormat)
	f.Add(paddedVarint(payload))
	// decodes checks the canonical property of one document and reports
	// how many records it decoded (-1 = refused). Older versions migrate on
	// decode, so only a current-format document must come back bit-identical.
	decodes := func(t *testing.T, doc []byte) int {
		recs, err := DecodeRecords(doc, "fuzz")
		if err != nil {
			return -1
		}
		re := EncodeRecords(recs)
		if binary.LittleEndian.Uint32(doc[8:]) == CurrentFormat && !bytes.Equal(re, doc) {
			t.Fatalf("decode accepted a non-canonical export: %d bytes in, %d bytes re-encoded", len(doc), len(re))
		}
		return len(recs)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		decodes(t, data)
		// CRC-valid-but-hostile: frame the raw input as the single record of
		// an otherwise impeccable current-format document. The framing layer
		// passes by construction, so any failure to reject garbage here is
		// the record decoder's.
		framed := make([]byte, 0, exportHeaderLen+frameLen+len(data))
		framed = append(framed, exportMagic[:]...)
		framed = binary.LittleEndian.AppendUint32(framed, CurrentFormat)
		framed = binary.LittleEndian.AppendUint32(framed, 1)
		framed = binary.LittleEndian.AppendUint32(framed, uint32(len(data)))
		framed = binary.LittleEndian.AppendUint32(framed, crc32.Checksum(data, crcTable))
		framed = append(framed, data...)
		if n := decodes(t, framed); n != -1 && n != 1 {
			t.Fatalf("framed single-record document decoded to %d records", n)
		}
	})
}
