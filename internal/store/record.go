// Package store is the embedded, crash-safe convergence store behind warm
// restarts (ROADMAP item 2). It persists one record per converged
// plan-session — fingerprint, tenant dataset identity, the best plan in its
// canonical serialized form, the convergence history, and the engine's cost
// calibration — in a single append-log file with CRC-framed records,
// truncate-to-last-valid crash recovery, and periodic compaction. Pure Go,
// no cgo, no dependencies beyond the standard library and the repo's own
// plan/cost packages.
//
// The on-disk schema carries an explicit format version. Version bumps
// follow one discipline: old versions keep a decoder forever, Open migrates
// old files forward by rewriting them at the current version, and unknown
// (future) versions are rejected with an error, never guessed at. The
// v1→v2 migration (v2 added per-record tenant names, outlier runs, and the
// cost calibration) is the template.
package store

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cost"
	"repro/internal/wire"
)

// Store format versions. CurrentFormat is what new files and new records
// are written at; every older version listed here can still be read and is
// migrated forward on Open.
const (
	// FormatV1 recorded {fingerprint, db identity, query, plan, history,
	// convergence config}.
	FormatV1 = 1
	// FormatV2 added the tenant name, the outlier-run list, and the cost
	// calibration the history was measured under.
	FormatV2 = 2
	// FormatV3 added the dataset epoch the session converged at. Records
	// migrated from older versions carry epoch 0 — the epoch of a freshly
	// generated dataset — so pre-epoch records rehydrate hot on unmutated
	// data and as warm seeds after any mutation, exactly like v3 records.
	FormatV3 = 3

	CurrentFormat = FormatV3
)

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
	// Since v2.
	Tenant string
	// Query is the cached query in its cache-key form (named query or
	// builder-spec JSON).
	Query string
	// PlanBytes is the best plan in canonical plan.Encode form.
	PlanBytes []byte
	// History is the per-run execution-time sequence; replaying it through
	// the convergence algorithm reconstructs the session's state exactly.
	History []float64
	// Outliers are the runs convergence flagged as noise peaks. Since v2.
	Outliers []int
	// Cores, ExtraRuns, GMEThreshold are the session's ConvergenceConfig —
	// the replay must run under the same calibration that produced History.
	Cores        int
	ExtraRuns    int
	GMEThreshold float64
	// HasCost marks whether CostParams was recorded. Records migrated from
	// v1 have no calibration (HasCost=false) and rehydrate against any
	// engine. Since v2.
	HasCost bool
	// CostParams is the engine cost calibration the history was measured
	// under; rehydration skips records whose calibration differs from the
	// serving engine's. Since v2.
	CostParams cost.Params
	// Epoch is the tenant dataset's mutation epoch the session converged at
	// (0 = the dataset as generated). Rehydration compares it against the
	// live tenant's epoch: a mismatch means the plan was learned on other
	// data — still correct (partitions are binary-rational ranges), but its
	// measurements are stale, so the record rehydrates as a warm seed, never
	// as served-converged. Since v3.
	Epoch int64
}

// encodeRecord renders rec at the given format version. Encoding is
// deterministic — identical records produce identical bytes — which is what
// makes compaction and export output reproducible bit-for-bit.
func encodeRecord(rec *Record, version int) ([]byte, error) {
	switch version {
	case FormatV1, FormatV2, FormatV3:
	default:
		return nil, fmt.Errorf("store: cannot encode record at unknown format version %d", version)
	}
	buf := make([]byte, 0, 64+len(rec.Fingerprint)+len(rec.DBIdentity)+len(rec.Query)+len(rec.PlanBytes)+8*len(rec.History))
	buf = wire.AppendString(buf, rec.Fingerprint)
	buf = wire.AppendString(buf, rec.DBIdentity)
	if version >= FormatV2 {
		buf = wire.AppendString(buf, rec.Tenant)
	}
	buf = wire.AppendString(buf, rec.Query)
	buf = wire.AppendBytes(buf, rec.PlanBytes)
	buf = binary.AppendUvarint(buf, uint64(len(rec.History)))
	for _, h := range rec.History {
		buf = wire.AppendFloat64(buf, h)
	}
	if version >= FormatV2 {
		buf = binary.AppendUvarint(buf, uint64(len(rec.Outliers)))
		for _, o := range rec.Outliers {
			buf = binary.AppendUvarint(buf, uint64(o))
		}
	}
	buf = binary.AppendUvarint(buf, uint64(rec.Cores))
	buf = binary.AppendUvarint(buf, uint64(rec.ExtraRuns))
	buf = wire.AppendFloat64(buf, rec.GMEThreshold)
	if version >= FormatV2 {
		buf = wire.AppendBool(buf, rec.HasCost)
		if rec.HasCost {
			for _, v := range costFields(&rec.CostParams) {
				buf = wire.AppendFloat64(buf, *v)
			}
		}
	}
	if version >= FormatV3 {
		buf = binary.AppendUvarint(buf, uint64(rec.Epoch))
	}
	return buf, nil
}

// decodeRecord parses a record payload written at the given format version
// and migrates it to the current in-memory shape. Fields a version did not
// record stay at their documented migration defaults: Tenant "" (default
// tenant), Outliers nil, HasCost false (no calibration check). A v1 record
// restores only if replaying its history flags no outlier: restore compares
// the replay's outlier runs with the record's.
func decodeRecord(data []byte, version int) (Record, error) {
	switch version {
	case FormatV1, FormatV2, FormatV3:
	default:
		return Record{}, fmt.Errorf("store: cannot decode record at unknown format version %d", version)
	}
	r := wire.NewReader(data)
	var rec Record
	rec.Fingerprint = r.Str()
	rec.DBIdentity = r.Str()
	if version >= FormatV2 {
		rec.Tenant = r.Str()
	}
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
	if version >= FormatV2 {
		if no := r.Uvarint(); no > uint64(r.Len()) {
			return Record{}, fmt.Errorf("outlier count %d exceeds payload", no)
		} else if no > 0 {
			rec.Outliers = make([]int, no)
			for i := range rec.Outliers {
				rec.Outliers[i] = int(r.Uvarint())
			}
		}
	}
	rec.Cores = int(r.Uvarint())
	rec.ExtraRuns = int(r.Uvarint())
	rec.GMEThreshold = r.Float64()
	if version >= FormatV2 {
		if rec.HasCost = r.Bool(); rec.HasCost {
			for _, v := range costFields(&rec.CostParams) {
				*v = r.Float64()
			}
		}
	}
	if version >= FormatV3 {
		rec.Epoch = int64(r.Uvarint())
	}
	if err := r.Err(); err != nil {
		return Record{}, err
	}
	if r.Len() != 0 {
		return Record{}, fmt.Errorf("%d trailing bytes after record", r.Len())
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
