// Package workload drives the engine the way the paper's experiments do:
// concurrent clients replaying query mixes (§4.2.3), saturating background
// CPU load (Figure 1's "0% CPU core idleness"), degree-of-parallelism
// sweeps, and latency statistics.
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sim"
)

// Stats accumulates latency samples (virtual ns).
type Stats struct {
	samples []float64
}

// Add records a sample.
func (s *Stats) Add(v float64) { s.samples = append(s.samples, v) }

// N returns the sample count.
func (s *Stats) N() int { return len(s.samples) }

// Mean returns the average, or 0 for no samples.
func (s *Stats) Mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.samples {
		sum += v
	}
	return sum / float64(len(s.samples))
}

func (s *Stats) sorted() []float64 {
	out := append([]float64(nil), s.samples...)
	sort.Float64s(out)
	return out
}

// Percentile returns the p-th percentile (0 < p ≤ 100).
func (s *Stats) Percentile(p float64) float64 {
	if len(s.samples) == 0 {
		return 0
	}
	ss := s.sorted()
	idx := int(p / 100 * float64(len(ss)-1))
	return ss[idx]
}

// Median returns the 50th percentile.
func (s *Stats) Median() float64 { return s.Percentile(50) }

// Min and Max return the extremes (0 for no samples).
func (s *Stats) Min() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	return s.sorted()[0]
}

// Max returns the largest sample.
func (s *Stats) Max() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	ss := s.sorted()
	return ss[len(ss)-1]
}

// SaturateCores submits width self-resubmitting compute tasks that keep the
// machine busy until the virtual deadline — the CPU-bound concurrent load of
// Figure 1. The tasks are compute-only (no bandwidth demand) so queries
// compete for cores, not memory.
func SaturateCores(m *sim.Machine, width int, taskNs, untilNs float64) {
	job := m.NewJob(width)
	var resubmit func()
	resubmit = func() {
		if m.Now() >= untilNs {
			return
		}
		m.Submit(&sim.Task{
			Label:  "bgload",
			Job:    job,
			BaseNs: taskNs,
			OnComplete: func(now float64, core int) {
				resubmit()
			},
		})
	}
	for i := 0; i < width; i++ {
		resubmit()
	}
}

// ClientConfig configures a concurrent replay.
type ClientConfig struct {
	// Plans is the query mix; each client picks uniformly at random.
	Plans []*plan.Plan
	// Repeats is how many queries each client runs.
	Repeats int
	// Seed drives the per-client mix selection.
	Seed int64
	// MaxCores, when non-nil, applies admission control per submission:
	// it receives the client index and the number of clients still active.
	MaxCores func(clientIdx, activeClients int) int
}

// QueryOutcome records one completed query during a concurrent run.
type QueryOutcome struct {
	Client    int
	PlanIndex int
	LatencyNs float64
}

// ConcurrentResult aggregates a concurrent replay.
type ConcurrentResult struct {
	Outcomes []QueryOutcome
	// PerPlan indexes latency stats by position in ClientConfig.Plans.
	PerPlan map[int]*Stats
	// Overall aggregates everything.
	Overall Stats
	// MakespanNs is the virtual time from first submission to last
	// completion.
	MakespanNs float64
}

// RunConcurrent replays the query mix with `clients` concurrent clients on
// eng's machine, each issuing its next query as soon as the previous one
// completes ("32 clients invoke queries repeatedly", §4.2.3).
func RunConcurrent(eng *exec.Engine, clients int, cfg ClientConfig) (*ConcurrentResult, error) {
	if len(cfg.Plans) == 0 {
		return nil, fmt.Errorf("workload: no plans")
	}
	if cfg.Repeats <= 0 {
		cfg.Repeats = 1
	}
	res := &ConcurrentResult{PerPlan: map[int]*Stats{}}
	start := eng.Machine().Now()
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0xc11e27))
	active := clients
	// A query that fails to submit ends its client's chain; the other clients
	// drain and the first failure is what RunConcurrent returns.
	var firstErr error
	var submitNext func(client, remaining int)
	submitNext = func(client, remaining int) {
		if remaining == 0 {
			active--
			return
		}
		pi := rng.Intn(len(cfg.Plans))
		var opts exec.JobOptions
		if cfg.MaxCores != nil {
			opts.MaxCores = cfg.MaxCores(client, active)
		}
		job, err := eng.Submit(cfg.Plans[pi], opts)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			active--
			return
		}
		job.OnDone = func(j *exec.PlanJob) {
			lat := j.Profile.Makespan()
			res.Outcomes = append(res.Outcomes, QueryOutcome{
				Client: client, PlanIndex: pi, LatencyNs: lat,
			})
			if res.PerPlan[pi] == nil {
				res.PerPlan[pi] = &Stats{}
			}
			res.PerPlan[pi].Add(lat)
			res.Overall.Add(lat)
			submitNext(client, remaining-1)
		}
	}
	for c := 0; c < clients; c++ {
		submitNext(c, cfg.Repeats)
	}
	eng.Machine().RunUntil(func() bool { return active == 0 })
	if firstErr != nil {
		return nil, fmt.Errorf("workload: %w", firstErr)
	}
	res.MakespanNs = eng.Machine().Now() - start
	want := clients * cfg.Repeats
	if res.Overall.N() != want {
		return nil, fmt.Errorf("workload: completed %d of %d queries", res.Overall.N(), want)
	}
	return res, nil
}
