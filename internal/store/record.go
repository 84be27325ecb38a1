// Package store is the embedded, crash-safe convergence store behind warm
// restarts (ROADMAP item 2). It persists one record per converged
// plan-session — fingerprint, tenant dataset identity, the best plan in its
// canonical serialized form, the convergence history, and the engine's cost
// calibration — in a single append-log file with CRC-framed records,
// truncate-to-last-valid crash recovery, and periodic compaction. Pure Go,
// no cgo, no dependencies beyond the standard library and the repo's own
// plan/cost packages.
//
// The on-disk schema carries an explicit format version, and one rule: the
// previous version migrates (Open rewrites its files at the current
// version); older ones, and unknown future ones, are refused with an error
// naming the version, never guessed at.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/wire"
)

// Store format versions: CurrentFormat is written, and FormatV3, the
// previous version, is read and migrated.
const (
	// FormatV3 has a calibration flag, and no Start or Halt: each of its
	// records holds one convergence instance, so they migrate with Start 0
	// and halt reason budget.
	FormatV3 = 3
	// FormatV4 drops the flag (every record is calibrated) and adds Start
	// and Halt.
	FormatV4 = 4

	CurrentFormat = FormatV4
)

// checkVersion refuses a format version this build cannot read; src names
// the file, document or record.
func checkVersion(src string, version int) error {
	switch {
	case version > CurrentFormat:
		return fmt.Errorf("store: %s is format version %d, newer than this build supports (%d) — upgrade before reading it", src, version, CurrentFormat)
	case version < FormatV3:
		return fmt.Errorf("store: %s is format version %d; this build reads only v%d and v%d", src, version, FormatV3, CurrentFormat)
	}
	return nil
}

// Record is one persisted converged session.
type Record struct {
	// Fingerprint is the plan-session cache key: hash of the tenant's
	// dataset identity and the query.
	Fingerprint string
	// DBIdentity is the dataset identity the session converged against.
	// Rehydration refuses records whose identity no longer matches the
	// serving tenant's — a stale plan for different data is never merged.
	DBIdentity string
	// Tenant names the owning tenant ("" = the daemon's default tenant).
	Tenant string
	// Query is the cached query in its cache-key form (named query or
	// builder-spec JSON).
	Query string
	// PlanBytes is the best plan in canonical plan.Encode form.
	PlanBytes []byte
	// History is the session's per-run execution-time sequence across
	// reopens, and Outliers the runs convergence flagged as noise peaks;
	// replaying History[Start:], the last convergence instance, through the
	// convergence algorithm reconstructs the session's state.
	History  []float64
	Outliers []int
	Start    int
	// Halt says why the last instance stopped exploring.
	Halt core.Halt
	// Cores, ExtraRuns, GMEThreshold are the last instance's
	// ConvergenceConfig — the replay must run under the same calibration
	// that produced History.
	Cores        int
	ExtraRuns    int
	GMEThreshold float64
	// CostParams is the engine cost calibration the history was measured
	// under; rehydration skips records whose calibration differs from the
	// serving engine's.
	CostParams cost.Params
	// Epoch is the tenant dataset's mutation epoch the session converged at
	// (0 = the dataset as generated). Rehydration compares it against the
	// live tenant's epoch: a mismatch means the plan was learned on other
	// data — still correct (partitions are binary-rational ranges), but its
	// measurements are stale, so the record rehydrates as a warm seed, never
	// as served-converged.
	Epoch int64
}

// encodeRecord renders rec at CurrentFormat, or at FormatV3 (dropping Start
// and Halt) for the tests' v3-era files. Encoding is deterministic —
// identical records produce identical bytes — which is what makes
// compaction and export output reproducible bit-for-bit.
func encodeRecord(rec *Record, version int) []byte {
	buf := make([]byte, 0, 64+len(rec.Fingerprint)+len(rec.DBIdentity)+len(rec.Query)+len(rec.PlanBytes)+8*len(rec.History))
	buf = wire.AppendString(buf, rec.Fingerprint)
	buf = wire.AppendString(buf, rec.DBIdentity)
	buf = wire.AppendString(buf, rec.Tenant)
	buf = wire.AppendString(buf, rec.Query)
	buf = wire.AppendBytes(buf, rec.PlanBytes)
	buf = binary.AppendUvarint(buf, uint64(len(rec.History)))
	for _, h := range rec.History {
		buf = wire.AppendFloat64(buf, h)
	}
	buf = binary.AppendUvarint(buf, uint64(len(rec.Outliers)))
	for _, o := range rec.Outliers {
		buf = binary.AppendUvarint(buf, uint64(o))
	}
	buf = binary.AppendUvarint(buf, uint64(rec.Cores))
	buf = binary.AppendUvarint(buf, uint64(rec.ExtraRuns))
	buf = wire.AppendFloat64(buf, rec.GMEThreshold)
	if version == FormatV3 {
		buf = wire.AppendBool(buf, true)
	}
	for _, v := range costFields(&rec.CostParams) {
		buf = wire.AppendFloat64(buf, *v)
	}
	buf = binary.AppendUvarint(buf, uint64(rec.Epoch))
	if version != FormatV3 {
		buf = binary.AppendUvarint(buf, uint64(rec.Start))
		buf = append(buf, byte(rec.Halt))
	}
	return buf
}

// decodeRecord parses a record payload written at the given format version
// into the current in-memory shape. It refuses a v3 record without a cost
// calibration (only a migrated v1 record could carry one), an unknown halt
// reason and a Start outside the history.
func decodeRecord(data []byte, version int) (Record, error) {
	if err := checkVersion("record", version); err != nil {
		return Record{}, err
	}
	r := wire.NewReader(data)
	var rec Record
	rec.Fingerprint = r.Str()
	rec.DBIdentity = r.Str()
	rec.Tenant = r.Str()
	rec.Query = r.Str()
	rec.PlanBytes = r.Bytes()
	if nh := r.Uvarint(); nh > uint64(r.Len()) {
		return Record{}, fmt.Errorf("history length %d exceeds payload", nh)
	} else if nh > 0 {
		rec.History = make([]float64, nh)
		for i := range rec.History {
			rec.History[i] = r.Float64()
		}
	}
	if no := r.Uvarint(); no > uint64(r.Len()) {
		return Record{}, fmt.Errorf("outlier count %d exceeds payload", no)
	} else if no > 0 {
		rec.Outliers = make([]int, no)
		for i := range rec.Outliers {
			rec.Outliers[i] = int(r.Uvarint())
		}
	}
	rec.Cores = int(r.Uvarint())
	rec.ExtraRuns = int(r.Uvarint())
	rec.GMEThreshold = r.Float64()
	if version == FormatV3 && !r.Bool() && r.Err() == nil {
		return Record{}, errors.New("v3 record has no cost calibration")
	}
	for _, v := range costFields(&rec.CostParams) {
		*v = r.Float64()
	}
	rec.Epoch = int64(r.Uvarint())
	if version != FormatV3 {
		rec.Start = int(r.Uvarint())
		rec.Halt = core.Halt(r.Byte())
	}
	switch err := r.Err(); {
	case err != nil:
		return Record{}, err
	case r.Len() != 0:
		return Record{}, fmt.Errorf("%d trailing bytes after record", r.Len())
	case rec.Start < 0 || rec.Start >= len(rec.History):
		return Record{}, fmt.Errorf("instance start %d outside a history of %d runs", rec.Start, len(rec.History))
	case rec.Halt != core.HaltBudget:
		return Record{}, fmt.Errorf("unknown halt reason %d", rec.Halt)
	}
	return rec, nil
}

// costFields lists the cost calibration's fields in their serialized order;
// adding a Params field is a format break and needs a version bump.
func costFields(p *cost.Params) []*float64 {
	return []*float64{
		&p.ScanNsPerByte, &p.WriteNsPerByte,
		&p.RandNsL3, &p.RandNsMem,
		&p.HashBuildNsPerTuple,
		&p.HashProbeNsL3, &p.HashProbeNsMem,
		&p.CompareNs, &p.PackNsPerByte,
		&p.DispatchNs, &p.ExchangeNsPerTuple,
	}
}
