// The /query path, in the order a request crosses it:
//
//	decode → resolve (tenant, fingerprint) → federation route →
//	quota → shard pin + deadline → coalesce →
//	serveAdaptive | serveSerial → encode
//
// handleQuery is the spine above HTTP framing, dispatch the spine below it;
// each stage is one function taking the previous stage's outputs.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/tpcds"
	"repro/internal/tpch"
)

// QueryRequest is the POST /query body. Exactly one of Query (a named
// benchmark query) or SelectSum (an ad-hoc builder spec) must be set.
type QueryRequest struct {
	// Tenant routes the request to a named dataset (the X-APQ-Tenant header
	// is the equivalent; the body field wins). Empty or "default" queries
	// the server's primary database.
	Tenant string `json:"tenant,omitempty"`
	// Benchmark is "tpch" or "tpcds"; empty means the tenant's benchmark.
	Benchmark string `json:"benchmark,omitempty"`
	// Query is the named benchmark query number (e.g. 6 for TPC-H Q6).
	Query int `json:"query,omitempty"`
	// SelectSum builds the paper's §4.1 micro-benchmark shape ad hoc:
	// sum(column) over rows of table where lo ≤ column ≤ hi.
	SelectSum *SelectSumSpec `json:"select_sum,omitempty"`
	// Mode is "adaptive" (default: serve through the plan-session cache) or
	// "serial" (execute the serial plan cold, bypassing the cache — the
	// baseline the serving benchmark compares against).
	Mode string `json:"mode,omitempty"`
	// MaxCores is a client-declared core budget for this request (0 = no
	// limit): the execution runs as if admitted under that many cores. When
	// server-side admission control is on too, the smaller budget wins. A
	// converged session served persistently under a small client budget is
	// exactly the regime the workload-drift detector watches.
	MaxCores int `json:"max_cores,omitempty"`
	// SelectRows is SelectSum without the aggregation: fetch the matching
	// column values themselves. Its result is one column of every selected
	// row — the shape that exercises chunked APQRESULT streaming.
	SelectRows *SelectSumSpec `json:"select_rows,omitempty"`
	// Results asks for the columnar APQRESULT reply body (an Accept header
	// carrying ResultContentType is the equivalent). Off, the reply is the
	// JSON metadata only — existing clients are untouched.
	Results bool `json:"results,omitempty"`
}

// SelectSumSpec is the ad-hoc builder spec the service accepts over JSON.
type SelectSumSpec struct {
	Table  string `json:"table"`
	Column string `json:"column"`
	Lo     *int64 `json:"lo,omitempty"`
	Hi     *int64 `json:"hi,omitempty"`
}

func (sp *SelectSumSpec) pred() algebra.Range {
	switch {
	case sp.Lo != nil && sp.Hi != nil:
		return algebra.Between(*sp.Lo, *sp.Hi)
	case sp.Lo != nil:
		return algebra.AtLeast(*sp.Lo)
	case sp.Hi != nil:
		return algebra.AtMost(*sp.Hi)
	default:
		return algebra.Between(algebra.NoLow, algebra.NoHigh)
	}
}

// appendKey appends the spec's canonical identity for fingerprinting — the
// spec fields already determine the plan, so there is no need to build and
// render a plan per request just to compute the cache key. shape namespaces
// the two query shapes sharing this spec type.
func (sp *SelectSumSpec) appendKey(buf []byte, shape string) []byte {
	buf = append(buf, shape...)
	buf = append(buf, ':')
	buf = append(buf, sp.Table...)
	buf = append(buf, ':')
	buf = append(buf, sp.Column...)
	buf = append(buf, ':')
	buf = appendBound(buf, sp.Lo)
	buf = append(buf, ':')
	return appendBound(buf, sp.Hi)
}

func appendBound(buf []byte, p *int64) []byte {
	if p == nil {
		return append(buf, '-')
	}
	return strconv.AppendInt(buf, *p, 10)
}

// build is the select_sum / select_rows plan: the same scan and fetch, and
// for rows the fetched values are the result — no aggregation folds them
// down, so a wide selection yields a result column spanning many wire chunks.
func (sp *SelectSumSpec) build(rows bool) *plan.Plan {
	b := plan.NewBuilder()
	col := b.Bind(sp.Table, sp.Column)
	vals := b.Fetch(b.Select(col, sp.pred()), col)
	if !rows {
		vals = b.Aggr(algebra.AggrSum, vals)
	}
	b.Result(vals)
	return b.Plan()
}

// QueryResponse is the POST /query reply.
type QueryResponse struct {
	Session     string `json:"session,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Query       string `json:"query"`
	// Tenant names the dataset served (omitted for the default tenant).
	Tenant string `json:"tenant,omitempty"`
	// Shard is the engine shard this query's fingerprint pins to.
	Shard int `json:"shard"`
	// State is "adapting", "converged", or "serial".
	State string `json:"state"`
	// Run is the adaptive run number this invocation executed. It is -1
	// for serial-mode requests, and for adapting requests served under a
	// throttled admission budget before the session's first adaptive run
	// (throttled invocations execute the current plan without counting as
	// adaptive runs).
	Run      int  `json:"run"`
	CacheHit bool `json:"cache_hit"`
	// LatencyNs is this invocation's virtual execution time.
	LatencyNs float64 `json:"latency_ns"`
	// BestLatencyNs is the session's global-minimum execution time so far.
	BestLatencyNs float64 `json:"best_latency_ns,omitempty"`
	// SerialLatencyNs is the session's run-0 baseline.
	SerialLatencyNs float64 `json:"serial_latency_ns,omitempty"`
	// Speedup is SerialLatencyNs / BestLatencyNs.
	Speedup float64 `json:"speedup,omitempty"`
	// DOP is the executed plan's degree of parallelism.
	DOP int `json:"dop"`
	// MaxCores is the admission-control budget applied (0 = unlimited).
	MaxCores  int `json:"max_cores"`
	NumValues int `json:"num_values"`
	// Degraded marks an invocation served frozen by an open shard breaker:
	// the learned plan executed, but no adaptation or staleness feedback
	// happened.
	Degraded bool `json:"degraded,omitempty"`
}

// FrozenHeader forces a request to serve from learned state only (no
// adaptation, no staleness feedback); ForwardedHeader marks a request
// already routed by a peer's federation stage — the receiving node must
// serve it locally, never re-route it (no forwarding loops). Both are
// coordinator-to-node headers, exported for internal/cluster.
const (
	FrozenHeader    = "X-APQ-Frozen"
	ForwardedHeader = "X-APQ-Forwarded"
)

// dispatchErr is a serve-path failure with its HTTP mapping: the status code
// and whether the reply should carry a Retry-After backoff hint.
type dispatchErr struct {
	code  int
	err   error
	retry bool
}

// handleQuery is POST /query: decode → resolve → federation → dispatch →
// encode over one pooled buffer, which holds the request body first and the
// reply after. A federated daemon's route stage sees the request decoded and
// resolved once, before any quota or engine work: a fingerprint another node
// owns is relayed from there and never reaches dispatch. A successful request
// calls no encoding/json and resolves without allocating on a cache hit.
func (s *Server) handleQuery(b *ioBuf, w http.ResponseWriter, r *http.Request) {
	var (
		req  QueryRequest
		resp QueryResponse
		vals []exec.Value
	)
	if !s.readBody(b, w, r, maxRequestBody, func(data []byte) error { return decodeQuery(data, &req) }) {
		return
	}
	t, derr := s.resolve(r.Header.Get("X-APQ-Tenant"), &req)
	if derr == nil {
		if s.cfg.Federation != nil && s.cfg.Federation.Route(w, r, b.buf.Bytes(), t.fp) {
			return
		}
		resp, vals, derr = s.dispatch(r.Context(), t, &req, r.Header.Get(FrozenHeader) == "1")
	}
	if derr != nil {
		if derr.retry {
			// Shed and over-quota rejections both carry the jittered backoff
			// hint: clients bounced in one burst should not return in one.
			w.Header().Set("Retry-After", s.retryAfter())
		}
		s.writeErr(b, w, derr.code, derr.err)
		return
	}
	s.encode(b, w, wantsResult(r.Header.Get("Accept"), &req), resp, vals)
}

// target is a request resolved against its tenant's dataset: what dispatch
// serves, and the fingerprint the federation routes by.
type target struct {
	tn *tenantState
	fpEntry
}

// dispatch runs one resolved query request through the rest of the serve
// path below HTTP framing, stage by stage. forceFrozen overrides the breaker
// decision to serve learned state only (the FrozenHeader fidelity). The
// returned values are the query's published result (shared, immutable; owned
// per the exec escape contract) — encode streams them when the request
// negotiated it.
func (s *Server) dispatch(ctx context.Context, t target, req *QueryRequest, forceFrozen bool) (resp QueryResponse, vals []exec.Value, derr *dispatchErr) {
	tn := t.tn
	// From here on every failure, in whichever stage, counts against the
	// tenant — once, here.
	defer func() {
		if derr != nil {
			tn.noteErr()
		}
	}()
	// The in-flight quota rejects before any engine work queues: a tenant
	// over its concurrency budget fails fast with 429 instead of stacking
	// requests on shard locks other tenants are waiting for. A tenant that
	// started draining between routing and admission is 404 — to the client
	// it no longer exists.
	if err := tn.acquire(); err != nil {
		code, retry := http.StatusTooManyRequests, true
		if errors.Is(err, errTenantDraining) {
			code, retry = http.StatusNotFound, false
		}
		return QueryResponse{}, nil, &dispatchErr{code: code, err: err, retry: retry}
	}
	defer tn.release()
	s.queryCount.Add(1)

	// Shard pinning: the fingerprint decides the engine replica, so a
	// session's adaptive state lives (and converges deterministically) on
	// exactly one simulated machine. Tenants share the pool — the
	// fingerprint already incorporates the tenant's dataset identity.
	sh := s.shardFor(t.fp)

	// The request context carries the per-request deadline into shard
	// dispatch: a request that cannot reach its engine in time 503s instead
	// of queueing forever (the client's own cancellation flows through too).
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}

	switch req.Mode {
	case "", "adaptive":
		return s.coalesce(ctx, tn, sh, req, t.fp, t.name, t.build, forceFrozen)
	case "serial":
		// Serial mode is the cold baseline the serving benchmark compares
		// against — coalescing it would fabricate the very sharing the
		// baseline exists to exclude, so it always runs.
		return s.serveSerial(ctx, tn, sh, req, t.name, t.build)
	default:
		return QueryResponse{}, nil, &dispatchErr{code: http.StatusBadRequest, err: fmt.Errorf("unknown mode %q", req.Mode)}
	}
}

// fpEntry is one cached resolution: the display name, the fingerprint and
// the plan builder, made once on the miss. build is deferred: plancache only
// calls it on its own miss, so the hot cached path never constructs a plan.
type fpEntry struct {
	name, fp string
	build    func() (*plan.Plan, error)
}

// maxFPCache bounds the fingerprint cache; ad-hoc specs are unbounded in
// principle, so the cache resets rather than grow without limit.
const maxFPCache = 4096

// fingerprintFor memoizes a resolution by its key. A hit allocates nothing:
// the caller builds key in a stack buffer, and only a miss stores a copy.
func (s *Server) fingerprintFor(key []byte, derive func() fpEntry) fpEntry {
	s.fpMu.Lock()
	e, ok := s.fpCache[string(key)]
	s.fpMu.Unlock()
	if ok {
		return e
	}
	e = derive()
	s.fpMu.Lock()
	if len(s.fpCache) >= maxFPCache {
		s.fpCache = make(map[string]fpEntry)
	}
	s.fpCache[string(key)] = e
	s.fpMu.Unlock()
	return e
}

// resolve maps a request to its target: the tenant — the body's "tenant"
// field first, then the X-APQ-Tenant header value hdrTenant ("" = none), an
// unknown one a 404 — and the query name, fingerprint and plan builder
// against that tenant's dataset, a malformed spec a 400 the tenant counts.
func (s *Server) resolve(hdrTenant string, req *QueryRequest) (target, *dispatchErr) {
	name := req.Tenant
	if name == "" {
		name = hdrTenant
	}
	tn, err := s.tenantByName(name)
	if err != nil {
		return target{}, &dispatchErr{code: http.StatusNotFound, err: err}
	}
	t := target{tn: tn}
	if t.fpEntry, err = s.resolveQuery(tn, req); err != nil {
		// A routed request, refused before the quota takes it.
		tn.requests.Add(1)
		tn.noteErr()
		return target{}, &dispatchErr{code: http.StatusBadRequest, err: err}
	}
	return t, nil
}

// resolveQuery maps a request to its (query name, fingerprint, plan builder)
// against its tenant's dataset.
func (s *Server) resolveQuery(tn *tenantState, req *QueryRequest) (fpEntry, error) {
	bench := req.Benchmark
	if bench == "" {
		bench = tn.Benchmark
	}
	if bench != tn.Benchmark {
		return fpEntry{}, fmt.Errorf("tenant %q serves %q, not %q", tn.displayName(), tn.Benchmark, bench)
	}
	// The fingerprint-cache key: the default tenant's is the bare query
	// identity, a named tenant's is prefixed name + NUL (RemoveTenant drops
	// a tenant's keys by that prefix).
	var buf [128]byte
	key := buf[:0]
	if !tn.def {
		key = append(append(key, tn.Name...), 0)
	}
	id := len(key)
	if req.SelectSum != nil || req.SelectRows != nil {
		if req.Query != 0 || (req.SelectSum != nil && req.SelectRows != nil) {
			return fpEntry{}, errors.New("set exactly one of query, select_sum, or select_rows")
		}
		shape, sel := "select_sum", req.SelectSum
		if req.SelectRows != nil {
			shape, sel = "select_rows", req.SelectRows
		}
		if sel.Table == "" || sel.Column == "" {
			return fpEntry{}, fmt.Errorf("%s needs table and column", shape)
		}
		// Validate against the tenant's live catalog before the plan can
		// reach the cache: a bad spec must be a 400, not a cache insertion
		// (and possible eviction of a healthy session) followed by an
		// execution failure. Catalogs are immutable once published, so the
		// loaded pointer needs no lock.
		tbl, err := tn.curCatalog().Table(sel.Table)
		if err != nil {
			return fpEntry{}, err
		}
		if _, err := tbl.Column(sel.Column); err != nil {
			return fpEntry{}, err
		}
		key = sel.appendKey(key, shape)
		return s.fingerprintFor(key, func() fpEntry {
			spec, rows := *sel, req.SelectRows != nil
			return fpEntry{
				name:  fmt.Sprintf("%s(%s.%s)", shape, spec.Table, spec.Column),
				fp:    plancache.Fingerprint(tn.DBIdentity, string(key[id:])),
				build: func() (*plan.Plan, error) { return spec.build(rows), nil },
			}
		}), nil
	}
	var (
		lookup  func(int) (*plan.Plan, error)
		numbers []int
	)
	switch bench {
	case "tpch":
		lookup, numbers = tpch.Query, tpch.QueryNumbers()
	case "tpcds":
		lookup, numbers = tpcds.Query, tpcds.QueryNumbers()
	}
	n := req.Query
	if n == 0 {
		return fpEntry{}, errors.New("missing query number")
	}
	// Validate by number only — building the plan here would put full plan
	// construction on every cached request's path.
	if !slices.Contains(numbers, n) {
		return fpEntry{}, fmt.Errorf("%s: query %d not implemented", bench, n)
	}
	key = strconv.AppendInt(append(append(key, bench...), ":q"...), int64(n), 10)
	return s.fingerprintFor(key, func() fpEntry {
		name := string(key[id:])
		return fpEntry{
			name:  name,
			fp:    plancache.Fingerprint(tn.DBIdentity, name),
			build: func() (*plan.Plan, error) { return lookup(n) },
		}
	}), nil
}

// flightKey identifies requests that may share one engine run: the
// fingerprint (which already encodes tenant, dataset identity, and the full
// query spec), the frozen-fidelity demand, the client core budget, and the
// tenant's data epoch at arrival — requests differing in any of these must
// not share a result. The epoch keeps a request sent after a mutation was
// acknowledged out of a flight whose leader ran before the swap (the flight
// is deleted only after the leader released the shard, and the barrier fits
// in between); a follower that joined before the swap overlapped the write
// and may get either state.
type flightKey struct {
	fp     string
	frozen bool
	cores  int
	epoch  int64
}

// flight is one in-flight adaptive engine run. Waiters block on done, then
// share the leader's published result. The sharing is safe by the exec
// ownership contract: values reachable from a result instruction are
// allocated fresh per run and never pooled or rewritten, so a concurrent
// Evict/Retire on the session recycles only arenas and schedules, never the
// buffers waiters hold.
type flight struct {
	done chan struct{}
	resp QueryResponse
	vals []exec.Value
	derr *dispatchErr
}

// coalesce is the single-flight stage: when the shard is already busy (a
// request holds or waits on its engine lock), an identical adaptive request
// joins the in-flight run instead of queueing behind it — N concurrent
// clients on one fingerprint cost one engine run, and every waiter shares the
// leader's published immutable result. The busy gate keeps the sequential
// hot path at one atomic load and zero allocations, and means the first
// overlapping pair still runs twice (runs per burst ≈ contenders at the
// instant of arrival, far below total requests).
func (s *Server) coalesce(ctx context.Context, tn *tenantState, sh *shard, req *QueryRequest, fp, name string, build func() (*plan.Plan, error), forceFrozen bool) (QueryResponse, []exec.Value, *dispatchErr) {
	if sh.waiting.Load() == 0 {
		return s.serveAdaptive(ctx, tn, sh, req, fp, name, build, forceFrozen)
	}
	k := flightKey{fp: fp, frozen: forceFrozen, cores: req.MaxCores, epoch: tn.epoch.Load()}
	s.flightMu.Lock()
	if f, ok := s.flights[k]; ok {
		s.flightMu.Unlock()
		s.coalesced.Add(1)
		select {
		case <-f.done:
			return f.resp, f.vals, f.derr
		case <-ctx.Done():
			// The waiter's own deadline expired before the leader
			// finished — same surface as a doCtx deadline expiry.
			s.res.deadlineExpiries.Add(1)
			return QueryResponse{}, nil, &dispatchErr{code: http.StatusServiceUnavailable, err: fmt.Errorf("server: %w", ctx.Err())}
		}
	}
	f := &flight{
		done: make(chan struct{}),
		// Pre-arm the failure outcome: if the leader panics out of
		// serveAdaptive, waiters must see an error, not a zero reply.
		derr: &dispatchErr{code: http.StatusInternalServerError, err: errors.New("server: coalesced engine run failed")},
	}
	s.flights[k] = f
	s.flightMu.Unlock()
	defer func() {
		s.flightMu.Lock()
		delete(s.flights, k)
		s.flightMu.Unlock()
		close(f.done)
	}()
	f.resp, f.vals, f.derr = s.serveAdaptive(ctx, tn, sh, req, fp, name, build, forceFrozen)
	return f.resp, f.vals, f.derr
}

// jobOpts binds a request's execution options but the catalog: the
// admission-control core budget and the client's own core cap — the smaller
// budget wins. With Config.Admission on it acquires the admission slot that
// produced the budget; the caller releases slot after the engine run. The
// catalog is read by the serve bodies once they hold the shard: a request
// parked behind a mutation's barrier must run on the epoch the barrier
// published, because the one before it may be reclaimed (admin.go).
func (s *Server) jobOpts(sh *shard, req *QueryRequest) (opts exec.JobOptions, slot int) {
	if s.cfg.Admission {
		var active int
		slot, active = sh.adm.acquire()
		cores := sh.eng.Machine().Config().LogicalCores()
		opts.MaxCores = exec.AdmissionMaxCores(slot, active, cores)
		if s.admitHook != nil {
			s.admitHook()
		}
	}
	if req.MaxCores > 0 && (opts.MaxCores == 0 || req.MaxCores < opts.MaxCores) {
		opts.MaxCores = req.MaxCores
	}
	return opts, slot
}

// engineErr maps an engine run's two failure channels to their replies — the
// one thing the adaptive and serial bodies share. doErr means the shard was
// never reached (shed, deadline, closed): a 503, and a shed request also
// carries Retry-After — the client should back off and come again, unlike a
// closed server. err means the run itself failed: a 500.
func engineErr(doErr, err error) *dispatchErr {
	switch {
	case doErr != nil:
		return &dispatchErr{code: http.StatusServiceUnavailable, err: doErr, retry: errors.Is(doErr, ErrOverloaded)}
	case err != nil:
		return &dispatchErr{code: http.StatusInternalServerError, err: err}
	}
	return nil
}

// serveAdaptive runs one adaptive invocation on its shard: admission,
// breaker fidelity, engine run, response assembly. Exactly one goroutine
// runs this per coalesced flight — waiters never reach it.
func (s *Server) serveAdaptive(ctx context.Context, tn *tenantState, sh *shard, req *QueryRequest, fp, name string, build func() (*plan.Plan, error), forceFrozen bool) (QueryResponse, []exec.Value, *dispatchErr) {
	opts, slot := s.jobOpts(sh, req)
	if s.cfg.Admission {
		defer sh.adm.release(slot)
	}
	// The shard's health breaker decides the invocation's fidelity: a
	// degraded shard serves frozen (learned plans, no exploration) until
	// its cooldown admits a half-open probe. A forced-frozen request
	// (FrozenHeader) is the degraded mode by demand — it never feeds the
	// breaker, exactly like breaker-frozen servings.
	mode := BreakerNormal
	if forceFrozen {
		mode = BreakerFrozen
	} else if s.cfg.Breaker {
		mode = sh.brk.Admit()
	}
	var (
		res *plancache.Result
		sum core.Summary
		err error
	)
	doErr := s.doCtx(ctx, sh, func() {
		opts.Catalog = tn.curCatalog()
		if mode == BreakerFrozen {
			res, err = sh.cache.InvokeTenantFrozen(tn.tag(), fp, name, build, opts)
		} else {
			res, err = sh.cache.InvokeTenant(tn.tag(), fp, name, build, opts)
		}
		if err == nil {
			// Snapshot under the shard lock: another request may step
			// this session the moment we release it.
			sum = res.Entry.Session.Summary()
		}
	})
	derr := engineErr(doErr, err)
	if s.cfg.Breaker {
		// Errored — or shed, deadline-expired, closed: the shard never
		// answered at full fidelity, and a probe that hit this stays open.
		sh.brk.Record(mode, derr != nil)
	}
	if derr != nil {
		return QueryResponse{}, nil, derr
	}
	resp := QueryResponse{
		Session:         res.Entry.ID,
		Fingerprint:     fp,
		Query:           name,
		Tenant:          tn.tag(),
		Shard:           sh.id,
		State:           "adapting",
		Run:             res.Invocation.Run,
		CacheHit:        !res.Created,
		LatencyNs:       res.Invocation.LatencyNs,
		BestLatencyNs:   sum.GMENs,
		SerialLatencyNs: sum.SerialNs,
		Speedup:         sum.Speedup(),
		DOP:             res.Invocation.DOP,
		MaxCores:        opts.MaxCores,
		NumValues:       len(res.Values),
	}
	if res.Invocation.Converged {
		resp.State = "converged"
	}
	resp.Degraded = res.Invocation.Frozen
	return resp, res.Values, nil
}

// serveSerial executes the serial plan cold, bypassing the plan cache, the
// breaker and coalescing — a separate body from serveAdaptive on purpose: a
// merged one would branch on the mode at the engine call, the breaker
// feedback and the response assembly.
func (s *Server) serveSerial(ctx context.Context, tn *tenantState, sh *shard, req *QueryRequest, name string, build func() (*plan.Plan, error)) (QueryResponse, []exec.Value, *dispatchErr) {
	opts, slot := s.jobOpts(sh, req)
	if s.cfg.Admission {
		defer sh.adm.release(slot)
	}
	var (
		vals []exec.Value
		prof *exec.Profile
		err  error
	)
	doErr := s.doCtx(ctx, sh, func() {
		opts.Catalog = tn.curCatalog()
		var p *plan.Plan
		if p, err = build(); err == nil {
			vals, prof, err = sh.eng.ExecuteOpts(p, opts)
			// One-shot plan: retire it immediately so its compiled
			// schedule doesn't churn the engine cache and its buffers
			// feed the next cold request through the recycler. Result
			// values stay valid: they escape per the exec contract.
			sh.eng.Retire(p)
		}
	})
	if derr := engineErr(doErr, err); derr != nil {
		return QueryResponse{}, nil, derr
	}
	return QueryResponse{
		Query:     name,
		Tenant:    tn.tag(),
		Shard:     sh.id,
		State:     "serial",
		Run:       -1,
		LatencyNs: prof.Makespan(),
		DOP:       1,
		MaxCores:  opts.MaxCores,
		NumValues: len(vals),
	}, vals, nil
}

// encode writes the success reply: the JSON metadata, or — when the request
// negotiated results — the same metadata framed inside APQRESULT followed by
// every result value streamed chunk-by-chunk straight from the published
// immutable buffers (result.go). The metadata is appendQueryResponse's, staged
// in the pooled buffer the body is done with. Errors always go out as JSON;
// only success bodies change representation.
func (s *Server) encode(b *ioBuf, w http.ResponseWriter, results bool, resp QueryResponse, vals []exec.Value) {
	b.buf.Reset()
	meta, err := appendQueryResponse(b.buf.AvailableBuffer(), &resp)
	if err != nil {
		s.writeErr(b, w, http.StatusInternalServerError, err)
		return
	}
	if !results {
		b.buf.Write(append(meta, '\n'))
		b.send(w, http.StatusOK)
		return
	}
	w.Header()["Content-Type"] = resultContentType
	n, _ := writeResult(w, meta, vals)
	// A mid-stream write error means the client hung up; the bytes that
	// made it out still count.
	s.resultBytes.Add(n)
}
