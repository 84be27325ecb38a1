package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	apq "repro"
	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// The traced run never overlaps an end-to-end run. It rebuilds the daemon's
// stack in this process from public constructors and replays the workload's
// hot requests at successively lower public entry points:
//
//	server.handle ⊃ plancache.invoke ⊃ exec.execute ⊃ {algebra.kernels, sim.run}
//
// Each level runs the same request ids; a span {name, start, end, parent,
// request_id} is recorded in memory around each public call and written to
// bench/out/trace-<workload>.json when the replay ends. A layer's self time
// is its span's median minus its child's. No clock is placed inside the
// program: spans inside the layers are a later change.

type span struct {
	Name      string  `json:"name"`
	StartUs   float64 `json:"start_us"`
	EndUs     float64 `json:"end_us"`
	Parent    string  `json:"parent,omitempty"`
	RequestID int     `json:"request_id"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

// timed runs f inside a span.
func (t *tracer) timed(name, parent string, id int, f func()) {
	start := time.Now()
	f()
	end := time.Now()
	t.spans = append(t.spans, span{
		Name: name, Parent: parent, RequestID: id,
		StartUs: float64(start.Sub(t.t0)) / 1e3, EndUs: float64(end.Sub(t.t0)) / 1e3,
	})
}

// us returns the typical duration of the spans called name, in microseconds:
// the median per hot query (request id i replays query i mod nq), averaged
// over the queries, as a round-robin of requests of different cost needs.
func (t *tracer) us(name string, nq int) float64 {
	perQuery := make([][]float64, nq)
	for _, s := range t.spans {
		if s.Name == name {
			k := s.RequestID % nq
			perQuery[k] = append(perQuery[k], s.EndUs-s.StartUs)
		}
	}
	return sumOfMedians(perQuery) / float64(nq)
}

// replayCounts is how many hot requests and mutations the traced run replays
// per level.
func replayCounts(w *workload) (reads, mutations int) {
	switch {
	case w.Churn:
		return 600, 60
	case w.SF < 1:
		return 3000, 20
	default:
		return 300, 20
	}
}

// replayWriter and replayBody let one request object be served again and
// again, so the allocation counters around the replay see the server's
// allocations and not the harness's.
type replayWriter struct {
	h    http.Header
	code int
	buf  bytes.Buffer
}

func (w *replayWriter) Header() http.Header         { return w.h }
func (w *replayWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }
func (w *replayWriter) WriteHeader(code int)        { w.code = code }

type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// handlerClient drives an http.Handler directly.
type handlerClient struct {
	h    http.Handler
	w    replayWriter
	body replayBody
	reqs map[string]*http.Request
}

func (c *handlerClient) post(path string, body []byte) (int, []byte) {
	req := c.reqs[path]
	if req == nil {
		var err error
		if req, err = http.NewRequest(http.MethodPost, path, nil); err != nil {
			panic(err)
		}
		req.Body = &c.body
		c.reqs[path] = req
	}
	c.body.Reset(body)
	for k := range c.w.h {
		delete(c.w.h, k)
	}
	c.w.code = http.StatusOK
	c.w.buf.Reset()
	c.h.ServeHTTP(&c.w, req)
	return c.w.code, c.w.buf.Bytes()
}

// planFor builds q's serial plan the way the daemon does.
func planFor(q query) (*plan.Plan, error) {
	if q.Num != 0 {
		return tpch.Query(q.Num)
	}
	b := plan.NewBuilder()
	col := b.Bind(q.Table, q.Column)
	vals := b.Fetch(b.Select(col, algebra.Between(q.Lo, q.Hi)), col)
	if q.Rows {
		b.Result(vals)
	} else {
		b.Result(b.Aggr(algebra.AggrSum, vals))
	}
	return b.Plan(), nil
}

// traceWorkload is the traced run of one workload. diag are the bench.*
// diagnostics of the end-to-end round that preceded it.
func traceWorkload(w *workload, cfg *runConfig, diag map[string]float64) (map[string]float64, error) {
	tr := &tracer{t0: time.Now()}
	out := map[string]float64{}
	reads, mutations := replayCounts(w)
	nq := len(w.Hot)
	tr.spans = make([]span, 0, 8*reads+4096)

	t0 := time.Now()
	db := apq.LoadTPCH(w.SF, cfg.seed)
	out["tpch.generate_s"] = time.Since(t0).Seconds()
	cat := db.Catalog()
	for _, name := range cat.Tables() {
		out["tpch.rows"] += float64(cat.MustTable(name).Rows())
	}
	machine := apq.TwoSocketMachine()
	cores := machine.LogicalCores()
	// The daemon's single client is always admission slot 0 of 1.
	opts := exec.JobOptions{MaxCores: apq.VectorwiseAdmissionMaxCores(0, 1, cores)}
	dbid := apq.DBIdentity("tpch", w.SF, cfg.seed)

	// Level 0: the whole serve path below the socket, configured as apqd
	// configures it and converged by the workload's cold sequence.
	srv, err := apq.NewServer(apq.ServerConfig{
		DB: db, Machine: machine, DBIdentity: dbid, Benchmark: "tpch",
		Admission: true, CacheSize: w.Cache, Shards: 2,
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	hc := &handlerClient{h: srv.Handler(), w: replayWriter{h: http.Header{}}, reqs: map[string]*http.Request{}}
	for _, q := range w.Cold {
		body := q.body(false, false)
		for n := 0; ; n++ {
			code, reply := hc.post("/query", body)
			if code != http.StatusOK {
				return nil, fmt.Errorf("in-process %s: status %d: %s", q, code, reply)
			}
			if bytes.Contains(reply, []byte(`"state":"converged"`)) {
				break
			}
			if n >= 5000 {
				return nil, fmt.Errorf("in-process %s: not converged after %d requests", q, n)
			}
		}
	}
	hotBodies := make([][]byte, nq)
	for i, q := range w.Hot {
		hotBodies[i] = q.body(false, w.Results)
	}

	// Level 1: the plan cache over a twin engine, its hot queries converged
	// the same way.
	cache := plancache.New(apq.NewEngine(db, machine).Internal(), plancache.Config{MaxEntries: w.Cache})
	fps := make([]string, nq)
	builds := make([]func() (*plan.Plan, error), nq)
	for i, q := range w.Hot {
		q := q
		fps[i] = plancache.Fingerprint(dbid, q.String())
		builds[i] = func() (*plan.Plan, error) { return planFor(q) }
		for n := 0; ; n++ {
			res, err := cache.InvokeTenant("", fps[i], q.String(), builds[i], opts)
			if err != nil {
				return nil, fmt.Errorf("plancache %s: %w", q, err)
			}
			if res.Invocation.Converged {
				break
			}
			if n >= 5000 {
				return nil, fmt.Errorf("plancache %s: not converged after %d invocations", q, n)
			}
		}
	}

	// Level 2: the engine alone, on the plans level 1 converged to and on
	// the serial plans they started from. Level 3: the kernels alone (a
	// select-shaped hot query is replayed over the converged plan's own
	// partition bounds; a multi-operator TPC-H plan has no such replay — it
	// would be a second interpreter — so its algebra.kernel_us and
	// exec.self_us stay 0 = not measured) and the event core alone, on the
	// converged plans' task graphs with the engine's task costs and no
	// kernel work behind the hooks.
	eng := apq.NewEngine(db, machine).Internal()
	best, serial := make([]*plan.Plan, nq), make([]*plan.Plan, nq)
	graphs := make([]*taskGraph, nq)
	var hotVals []exec.Value
	for k := range w.Hot {
		e := cache.GetFingerprint(fps[k])
		if e == nil {
			return nil, errors.New("plancache lost a converged session")
		}
		best[k] = e.Session.Best()
		if serial[k], err = builds[k](); err != nil {
			return nil, err
		}
		vals, prof, err := eng.ExecuteOpts(best[k], opts)
		if err != nil {
			return nil, err
		}
		if k == 0 {
			hotVals = vals
		}
		graphs[k] = newTaskGraph(best[k], prof, eng, opts.MaxCores)
		for _, op := range prof.Ops {
			out["algebra.tuples_per_req"] += float64(op.Work.TuplesIn) / float64(nq)
		}
		out["sim.virtual_ms"] += prof.Makespan() / 1e6 / float64(nq)
		out["sim.tasks_per_req"] += float64(len(graphs[k].tasks)) / float64(nq)
		out["plan.instrs"] += float64(len(best[k].Instrs)) / float64(nq)
		out["plan.dop"] += float64(best[k].MaxDOP()) / float64(nq)
	}
	var kernels func()
	if q := w.Hot[0]; q.Num == 0 {
		kernels = kernelReplay(cat.MustTable(q.Table).MustColumn(q.Column), algebra.Between(q.Lo, q.Hi), best[0], !q.Rows)
	}

	// The replay: request id i goes through every level before request i+1
	// starts, so all levels of one request see the same machine at the same
	// time — the drift-cancelling shape of the end-to-end cycle.
	for i := 0; i < reads; i++ {
		k := i % nq
		var code int
		tr.timed("server.handle", "", i, func() { code, _ = hc.post("/query", hotBodies[k]) })
		if code != http.StatusOK {
			return nil, fmt.Errorf("in-process hot request: status %d", code)
		}
		tr.timed("plancache.invoke", "server.handle", i, func() {
			_, err = cache.InvokeTenant("", fps[k], w.Hot[k].String(), builds[k], opts)
		})
		if err != nil {
			return nil, err
		}
		tr.timed("exec.execute", "plancache.invoke", i, func() { _, _, err = eng.ExecuteOpts(best[k], opts) })
		if err != nil {
			return nil, err
		}
		tr.timed("exec.execute_serial", "", i, func() { _, _, err = eng.ExecuteOpts(serial[k], opts) })
		if err != nil {
			return nil, err
		}
		if kernels != nil {
			tr.timed("algebra.kernels", "exec.execute", i, kernels)
		}
		tr.timed("sim.run", "exec.execute", i, graphs[k].run)
	}

	// Server-side allocations, counted around a pass of its own so that no
	// other level's garbage is in the numbers.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < reads; i++ {
		hc.post("/query", hotBodies[i%nq])
	}
	runtime.ReadMemStats(&m1)
	out["server.allocs_per_req"] = float64(m1.Mallocs-m0.Mallocs) / float64(reads)
	out["server.bytes_per_req"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(reads)

	// Mutations through the handler, and storage copy-on-write alone.
	o := newOracle(w, cfg.seed)
	appendBody, truncateBody := o.appendBody(), o.truncateBody()
	table := cat.MustTable(w.MutTable)
	out["storage.append_bytes_copied"] = float64((table.Rows() + mutRows) * len(table.ColumnNames()) * 8)
	for i := 0; i < mutations; i += 2 {
		var code int
		tr.timed("server.mutation", "", i, func() { code, _ = hc.post("/admin/append", appendBody) })
		if code != http.StatusOK {
			return nil, fmt.Errorf("in-process append: status %d", code)
		}
		var grown *storage.Catalog
		tr.timed("storage.append", "server.mutation", i, func() { grown, err = cat.AppendRows(w.MutTable, o.extra) })
		if err != nil {
			return nil, err
		}
		tr.timed("server.mutation", "", i+1, func() { code, _ = hc.post("/admin/truncate", truncateBody) })
		if code != http.StatusOK {
			return nil, fmt.Errorf("in-process truncate: status %d", code)
		}
		tr.timed("storage.truncate", "server.mutation", i+1, func() { _, err = grown.DeleteTail(w.MutTable, mutRows) })
		if err != nil {
			return nil, err
		}
	}

	// The cold path: core sessions stepping the cold queries to convergence.
	// Every fourth step is followed by the execution alone of the plan it
	// tried (run twice: the first pays the plan's compilation, the timed one
	// does not), so step − exec is what the session adds: mutation, diff,
	// incremental compile, convergence bookkeeping.
	coreEng, aloneEng := apq.NewEngine(db, machine).Internal(), apq.NewEngine(db, machine).Internal()
	var parent, child *plan.Plan
	step := 0
	for _, q := range w.Cold {
		p, err := planFor(q)
		if err != nil {
			return nil, err
		}
		sess := core.NewSession(coreEng, p, core.DefaultMutationConfig(), core.DefaultConvergenceConfig(cores))
		for n := 0; !sess.Done(); n++ {
			tr.timed("core.step", "", step, func() { _, err = sess.StepWith(opts) })
			if err != nil {
				return nil, fmt.Errorf("core %s: %w", q, err)
			}
			att := sess.Attempts()
			tried := att[len(att)-1].Plan
			if tried != child {
				parent, child = child, tried
			}
			if step%4 == 0 {
				if _, _, err = aloneEng.ExecuteOpts(tried, opts); err != nil {
					return nil, err
				}
				tr.timed("core.step.exec", "core.step", step, func() { _, _, err = aloneEng.ExecuteOpts(tried, opts) })
				if err != nil {
					return nil, err
				}
				aloneEng.Retire(tried)
			}
			step++
			if n >= 5000 {
				return nil, fmt.Errorf("core %s: not converged after %d steps", q, n)
			}
		}
		out["core.attempts"] += float64(len(sess.Attempts()))
		sess.Release()
	}
	out["core.runs_to_converge"] = float64(step)

	// The plan operations a cold step performs, on the last mutation tried,
	// and the result wire format on the first hot query's values.
	if parent == nil {
		parent = child
	}
	resp := &server.QueryResponse{Query: w.Hot[0].String(), State: "converged", NumValues: len(hotVals)}
	var doc []byte
	for i := 0; i < 50; i++ {
		tr.timed("plan.clone", "core.step", i, func() { child.Clone() })
		tr.timed("plan.validate", "core.step", i, func() { err = child.Validate() })
		if err != nil {
			return nil, err
		}
		tr.timed("plan.diff", "core.step", i, func() { plan.ComputeDiff(parent, child) })
		tr.timed("plan.encode", "core.step", i, func() { plan.Encode(child) })
		tr.timed("server.encode_result", "server.handle", i, func() { doc, err = server.EncodeResult(resp, hotVals) })
		if err != nil {
			return nil, err
		}
		tr.timed("server.decode_result", "", i, func() { _, err = server.DecodeResult(doc) })
		if err != nil {
			return nil, err
		}
	}
	out["server.result_bytes"] = float64(len(doc))
	kernelRates(out, cat, w)

	for _, name := range []string{"server.handle", "plancache.invoke", "exec.execute", "exec.execute_serial", "algebra.kernels", "sim.run"} {
		out[name+"_us"] = tr.us(name, nq)
	}
	out["algebra.kernel_us"] = out["algebra.kernels_us"]
	delete(out, "algebra.kernels_us")
	for _, name := range []string{"server.mutation", "server.encode_result", "server.decode_result", "core.step",
		"plan.clone", "plan.validate", "plan.diff", "plan.encode", "storage.append", "storage.truncate"} {
		out[name+"_us"] = tr.us(name, 1)
	}
	out["server.self_us"] = out["server.handle_us"] - out["plancache.invoke_us"]
	out["plancache.self_us"] = out["plancache.invoke_us"] - out["exec.execute_us"]
	out["exec.plan_overhead_us"] = out["exec.execute_us"] - out["exec.execute_serial_us"]
	if kernels != nil {
		out["exec.self_us"] = out["exec.execute_us"] - out["algebra.kernel_us"] - out["sim.run_us"]
	}
	out["core.self_us"] = out["core.step_us"] - tr.us("core.step.exec", 1)
	out["sim.ns_per_task"] = ratio(out["sim.run_us"]*1e3, out["sim.tasks_per_req"])
	out["bench.unattributed_us"] = diag["bench.p50_ms"]*1e3 - out["server.handle_us"]

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return out, err
	}
	if doc, err = json.Marshal(tr.spans); err != nil {
		return out, err
	}
	return out, os.WriteFile(filepath.Join(cfg.outDir, "trace-"+w.Name+".json"), doc, 0o644)
}

// kernelReplay returns one select→fetch(→sum) request as direct kernel calls,
// once per partition of the converged plan's select operators.
func kernelReplay(col *storage.Column, pred algebra.Range, best *plan.Plan, sum bool) func() {
	var views []*storage.Column
	for _, in := range best.Instrs {
		if in.Op == plan.OpSelect {
			lo, hi := in.Part.Resolve(col.Len())
			views = append(views, col.View(lo, hi))
		}
	}
	oids := make([]int64, 0, col.Len())
	vals := make([]int64, col.Len())
	return func() {
		for _, v := range views {
			sel, _ := algebra.SelectInto(oids[:0], v, pred)
			n, _, _ := algebra.FetchInto(vals, sel, col)
			if sum {
				algebra.Aggr(algebra.AggrSum, storage.NewIntColumn("vals", vals[:n]))
			}
		}
	}
}

// kernelRates times each kernel alone on the workload's own columns and
// reports nanoseconds per input tuple: select, fetch and aggr on the hot
// query's column (lineitem.l_quantity for named queries), hash join and
// group-by on lineitem.l_orderkey. The join probes a cached hash of
// orders.o_orderkey, as the serving path does after its first request.
func kernelRates(out map[string]float64, cat *storage.Catalog, w *workload) {
	q := w.Hot[0]
	if q.Num != 0 {
		q = scanQ
	}
	col := cat.MustTable(q.Table).MustColumn(q.Column)
	pred := algebra.Between(q.Lo, q.Hi)
	oids := make([]int64, 0, col.Len())
	vals := make([]int64, col.Len())
	perTuple := func(tuples int, f func()) float64 {
		var ds []float64
		for i := 0; i < 7; i++ {
			t0 := time.Now()
			f()
			ds = append(ds, float64(time.Since(t0)))
		}
		return ratio(median(ds), float64(tuples))
	}
	var sel []int64
	out["algebra.select_ns_per_tuple"] = perTuple(col.Len(), func() { sel, _ = algebra.SelectInto(oids[:0], col, pred) })
	var n int
	out["algebra.fetch_ns_per_tuple"] = perTuple(len(sel), func() { n, _, _ = algebra.FetchInto(vals, sel, col) })
	fetched := storage.NewIntColumn("vals", vals[:n])
	out["algebra.aggr_ns_per_tuple"] = perTuple(n, func() { algebra.Aggr(algebra.AggrSum, fetched) })
	lkeys := cat.MustTable("lineitem").MustColumn("l_orderkey")
	okeys := cat.MustTable("orders").MustColumn("o_orderkey")
	algebra.HashJoin(lkeys, okeys)
	out["algebra.hashjoin_ns_per_tuple"] = perTuple(lkeys.Len(), func() { algebra.HashJoin(lkeys, okeys) })
	out["algebra.groupby_ns_per_tuple"] = perTuple(lkeys.Len(), func() { algebra.GroupBy(lkeys) })
}

// taskGraph is a converged plan's schedule with the kernels taken out: one
// simulator task per instruction with the cost the engine gave it, released
// when its producers complete, exactly as exec.PlanJob does.
type taskGraph struct {
	tasks   []graphTask
	waiters [][]int32
	roots   []int32
	pending []int32
	left    []int32
	// mach is this graph's machine; like an engine's, it is built once and
	// runs request after request.
	mach     *sim.Machine
	maxCores int
}

type graphTask struct {
	sim.Task
	g   *taskGraph
	idx int32
}

func (t *graphTask) TaskStarted(float64, int) {}

func (t *graphTask) TaskCompleted(float64, int) {
	g := t.g
	for _, dep := range g.waiters[t.idx] {
		if g.left[dep]--; g.left[dep] == 0 {
			g.mach.Submit(&g.tasks[dep].Task)
		}
	}
}

func newTaskGraph(p *plan.Plan, prof *exec.Profile, eng *exec.Engine, maxCores int) *taskGraph {
	n := len(p.Instrs)
	cfg := eng.Machine().Config()
	g := &taskGraph{
		tasks: make([]graphTask, n), waiters: make([][]int32, n), pending: make([]int32, n), left: make([]int32, n),
		mach: sim.NewMachine(cfg), maxCores: maxCores,
	}
	producer := p.Producers()
	for i, in := range p.Instrs {
		seen := map[int32]bool{}
		for _, a := range in.Args {
			if src := producer[a]; src >= 0 && !seen[src] {
				seen[src] = true
				g.pending[i]++
				g.waiters[src] = append(g.waiters[src], int32(i))
			}
		}
		if g.pending[i] == 0 {
			g.roots = append(g.roots, int32(i))
		}
	}
	work := make([]algebra.Work, n)
	for _, op := range prof.Ops {
		work[op.Instr] = op.Work
	}
	for i, in := range p.Instrs {
		est := eng.Params().ForWork(in.Op, work[i], cfg.L3PerSocket)
		home := i % cfg.Sockets
		if !in.Part.IsFull() {
			if home = int(uint64(cfg.Sockets) * in.Part.LoNum / in.Part.Den); home >= cfg.Sockets {
				home = cfg.Sockets - 1
			}
		}
		g.tasks[i] = graphTask{g: g, idx: int32(i), Task: sim.Task{
			Label: in.Op.String(), BaseNs: est.Ns, MemFrac: est.MemFrac, Bytes: est.Bytes, HomeSocket: home,
		}}
	}
	return g
}

// run plays one request's tasks: NewJob, Submit the roots, Run to idle.
func (g *taskGraph) run() {
	job := g.mach.NewJob(g.maxCores)
	copy(g.left, g.pending)
	for i := range g.tasks {
		g.tasks[i].Job = job
		g.tasks[i].Hooks = &g.tasks[i]
	}
	for _, r := range g.roots {
		g.mach.Submit(&g.tasks[r].Task)
	}
	g.mach.Run()
}
