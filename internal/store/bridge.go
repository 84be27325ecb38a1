package store

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/plan"
)

// NewRecord builds the persistent record for a converged session: the
// snapshot's best plan in canonical encoded form plus the convergence
// replay state, stamped with the cache identity (fingerprint, dataset,
// tenant, query), the dataset epoch the history was measured at, and the
// engine calibration it was measured under.
func NewRecord(fp, dbIdentity, tenant, query string, epoch int64, snap *core.Snapshot, params cost.Params) Record {
	return Record{
		Fingerprint:  fp,
		DBIdentity:   dbIdentity,
		Tenant:       tenant,
		Query:        query,
		Epoch:        epoch,
		PlanBytes:    plan.Encode(snap.BestPlan),
		History:      snap.History,
		Outliers:     snap.Outliers,
		Cores:        snap.Config.Cores,
		ExtraRuns:    snap.Config.ExtraRuns,
		GMEThreshold: snap.Config.GMEThreshold,
		HasCost:      true,
		CostParams:   params,
	}
}

// RestoreSession rebuilds the record's converged session on eng: decode the
// canonical plan, replay the convergence history. The caller checks
// identity (DBIdentity, cost calibration) before calling; this function
// checks integrity — an undecodable plan or a history that does not replay
// to convergence is an error, never a half-restored session.
func (r *Record) RestoreSession(eng *exec.Engine) (*core.Session, error) {
	p, err := plan.Decode(r.PlanBytes)
	if err != nil {
		return nil, fmt.Errorf("store: record %s: %w", r.Fingerprint, err)
	}
	sess, err := core.RestoreSession(eng, &core.Snapshot{
		Config: core.ConvergenceConfig{
			Cores:        r.Cores,
			ExtraRuns:    r.ExtraRuns,
			GMEThreshold: r.GMEThreshold,
		},
		History:  r.History,
		Outliers: r.Outliers,
		BestPlan: p,
	})
	if err != nil {
		return nil, fmt.Errorf("store: record %s: %w", r.Fingerprint, err)
	}
	return sess, nil
}
