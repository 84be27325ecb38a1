// Command apqd is the adaptive-parallelization query-service daemon: it
// loads a benchmark database onto a pool of simulated multi-core engine
// shards and serves queries over HTTP/JSON, keeping adaptive state alive
// between requests. Repeated submissions of the same query keep stepping
// its convergence algorithm (each request is one adaptive run), so a cached
// query's latency drops request-over-request until the global-minimum plan
// is found. Queries are pinned to shards by fingerprint hash, so distinct
// queries execute concurrently on distinct host cores.
//
// Endpoints:
//
//	POST /query                 {"query":6} | {"query":6,"mode":"serial"} |
//	                            {"select_sum":{"table":"lineitem","column":"l_quantity","lo":10,"hi":500}} |
//	                            {"tenant":"acme","query":6}  (or the X-APQ-Tenant header)
//	GET  /sessions[?tenant=]    live plan-cache sessions (all shards; optionally one tenant's)
//	GET  /sessions/{id}/trace   per-run convergence trace (Figure 18)
//	GET  /stats                 server, cache, admission, lifecycle, and per-tenant counters per shard
//	GET  /healthz               liveness
//	POST /admin/append          append rows to a tenant table (bumps the dataset epoch,
//	                            reopens the tenant's converged sessions warm)
//	POST /admin/truncate        delete a tenant table's tail rows (same epoch semantics)
//	POST /admin/tenants         add a tenant at runtime: {"name":"acme","sf":0.5,"seed":7}
//	DELETE /admin/tenants?name= drain and remove a tenant with zero downtime
//	GET|POST|DELETE /admin/peers  federation membership (only with -node): list, join {"name":"b","url":"http://..."}, leave ?name=
//	POST /cluster/replicate     peer-to-peer converged-plan intake (only with -node)
//	GET  /debug/pprof/          host-side profiling (only with -pprof)
//
// Usage:
//
//	go run ./cmd/apqd -addr :8080 -bench tpch -sf 1 -machine 2s -shards 4
//	go run ./cmd/apqd -tenant acme=tpch:0.5:7 -tenant globex=tpcds:1:9   # extra tenant datasets, one shard pool
//	go run ./cmd/apqd -store plans.apqs      # persist converged plans; warm-restart from them next start
//	go run ./cmd/apqd -store plans.apqs -export-plans plans.apqx   # export converged plans, then exit
//	go run ./cmd/apqd -store other.apqs -import-plans plans.apqx   # import an export file, then exit
//	go run ./cmd/apqd -staleness -fault core-loss@5e6:socket=0:count=8   # chaos: scheduled core loss + re-convergence
//	go run ./cmd/apqd -request-timeout 2s -max-shard-queue 64 -breaker   # overload hardening
//	go run ./cmd/apqd -addr :8080 -node a -peer b=http://host2:8080   # two-node federation (run the mirror on host2)
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: in-flight requests —
// including admin mutations and tenant lifecycle operations, which register
// with the same in-flight tracker as queries — drain before the engine
// shards are retired, and the convergence store's write-behind queue is
// flushed and the store closed before the process exits — on every exit
// path, including a failed listener shutdown. That ordering matters for
// mutations: an /admin/append racing shutdown either completes its epoch
// bump before the store flush or is rejected with 503, never half-applied.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	apq "repro"
)

// tenantFlags collects repeatable -tenant flags: name=bench:sf:seed.
type tenantFlags []apq.TenantConfig

func (t *tenantFlags) String() string {
	parts := make([]string, len(*t))
	for i, tc := range *t {
		parts[i] = fmt.Sprintf("%s=%s:%g:%d", tc.Name, tc.Benchmark, tc.SF, tc.Seed)
	}
	return strings.Join(parts, ",")
}

func (t *tenantFlags) Set(v string) error {
	// Every error names the flag and quotes the whole offending value: a
	// repeatable flag's failure must say which -tenant of several broke.
	name, spec, ok := strings.Cut(v, "=")
	if !ok || name == "" {
		return fmt.Errorf("bad -tenant value %q: want name=bench:sf:seed", v)
	}
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return fmt.Errorf("bad -tenant value %q: want name=bench:sf:seed", v)
	}
	sf, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return fmt.Errorf("bad -tenant value %q: scale factor %q does not parse: %v", v, parts[1], err)
	}
	seed, err := strconv.ParseInt(parts[2], 10, 64)
	if err != nil {
		return fmt.Errorf("bad -tenant value %q: seed %q does not parse: %v", v, parts[2], err)
	}
	*t = append(*t, apq.TenantConfig{Name: name, Benchmark: parts[0], SF: sf, Seed: seed})
	return nil
}

// faultFlags collects repeatable -fault flags:
// kind@ns[:socket=N][:count=N][:factor=F][:dur=ns] with kind one of
// core-loss, throttle, interference.
type faultFlags apq.FaultPlan

func (f *faultFlags) String() string {
	parts := make([]string, len(*f))
	for i, ev := range *f {
		parts[i] = fmt.Sprintf("%s@%g", ev.Kind, ev.AtNs)
	}
	return strings.Join(parts, ",")
}

func (f *faultFlags) Set(v string) error {
	kindStr, rest, ok := strings.Cut(v, "@")
	if !ok {
		return fmt.Errorf("bad -fault value %q: want kind@ns[:opt=val...]", v)
	}
	var ev apq.FaultEvent
	switch kindStr {
	case "core-loss":
		ev.Kind = apq.FaultCoreLoss
	case "throttle":
		ev.Kind = apq.FaultSocketThrottle
	case "interference":
		ev.Kind = apq.FaultInterference
	default:
		return fmt.Errorf("bad -fault value %q: unknown fault kind %q (want core-loss, throttle, or interference)", v, kindStr)
	}
	parts := strings.Split(rest, ":")
	at, err := strconv.ParseFloat(parts[0], 64)
	if err != nil {
		return fmt.Errorf("bad -fault value %q: virtual time %q does not parse: %v", v, parts[0], err)
	}
	ev.AtNs = at
	for _, opt := range parts[1:] {
		key, val, ok := strings.Cut(opt, "=")
		if !ok {
			return fmt.Errorf("bad -fault value %q: want opt=val, got %q", v, opt)
		}
		switch key {
		case "socket":
			if ev.Socket, err = strconv.Atoi(val); err != nil {
				return fmt.Errorf("bad -fault value %q: socket %q does not parse: %v", v, val, err)
			}
		case "count":
			if ev.Count, err = strconv.Atoi(val); err != nil {
				return fmt.Errorf("bad -fault value %q: count %q does not parse: %v", v, val, err)
			}
		case "factor":
			if ev.Factor, err = strconv.ParseFloat(val, 64); err != nil {
				return fmt.Errorf("bad -fault value %q: factor %q does not parse: %v", v, val, err)
			}
		case "dur":
			if ev.DurationNs, err = strconv.ParseFloat(val, 64); err != nil {
				return fmt.Errorf("bad -fault value %q: duration %q does not parse: %v", v, val, err)
			}
		default:
			return fmt.Errorf("bad -fault value %q: unknown option %q (want socket, count, factor, or dur)", v, key)
		}
	}
	*f = append(*f, ev)
	return nil
}

// peerFlags collects repeatable -peer flags: name=http://host:port.
type peerFlags []apq.ClusterPeer

func (p *peerFlags) String() string {
	parts := make([]string, len(*p))
	for i, pr := range *p {
		parts[i] = pr.Name + "=" + pr.URL
	}
	return strings.Join(parts, ",")
}

func (p *peerFlags) Set(v string) error {
	name, url, ok := strings.Cut(v, "=")
	if !ok || name == "" || url == "" {
		return fmt.Errorf("bad -peer value %q: want name=http://host:port", v)
	}
	if !strings.Contains(url, "://") {
		return fmt.Errorf("bad -peer value %q: url %q has no scheme (want name=http://host:port)", v, url)
	}
	for _, pr := range *p {
		if pr.Name == name {
			return fmt.Errorf("bad -peer value %q: peer name %q given twice", v, name)
		}
	}
	*p = append(*p, apq.ClusterPeer{Name: name, URL: url})
	return nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	bench := flag.String("bench", "tpch", "benchmark database to load: tpch or tpcds")
	sf := flag.Float64("sf", 1, "scale factor")
	seed := flag.Int64("seed", 42, "generator seed")
	machine := flag.String("machine", "2s", "machine config: 2s (2-socket/32HT), 4s (4-socket/96HT), 2s-asym (socket 1 at 0.7×), or 4s-asym (stepped 1.0/0.9/0.75/0.6× clocks)")
	shards := flag.Int("shards", 0, "engine shard-pool width (0 = derive from GOMAXPROCS)")
	admission := flag.Bool("admission", true, "apply Vectorwise-style admission control to concurrent clients of a shard")
	cacheSize := flag.Int("cache", 0, "max live plan-cache sessions per shard (0 = unlimited)")
	storePath := flag.String("store", "", "persistent convergence store path (created if missing): converged plans are persisted as they converge and rehydrated on restart")
	exportPlans := flag.String("export-plans", "", "export the -store file's records to this self-describing file and exit (no database is loaded)")
	importPlans := flag.String("import-plans", "", "import an export file's records into -store and exit (no database is loaded)")
	var tenants tenantFlags
	flag.Var(&tenants, "tenant", "serve an extra tenant dataset over the same shard pool: name=bench:sf:seed (repeatable)")
	tenantSessions := flag.Int("tenant-sessions", 0, "per-tenant cached-session quota per shard (0 = unlimited)")
	tenantInflight := flag.Int("tenant-inflight", 0, "per-tenant in-flight request quota (0 = unlimited)")
	var faults faultFlags
	flag.Var(&faults, "fault", "schedule a machine fault on every shard: kind@ns[:socket=N][:count=N][:factor=F][:dur=ns] with kind core-loss, throttle, or interference (repeatable)")
	node := flag.String("node", "", "this daemon's federation node name; with -peer, /query routes across the cluster's consistent-hash ring")
	var peers peerFlags
	flag.Var(&peers, "peer", "federate with a remote daemon: name=http://host:port (repeatable; requires -node; all nodes must agree on names)")
	staleness := flag.Bool("staleness", false, "arm serving-time staleness detection: converged queries whose latency drifts out of band reopen convergence and re-adapt")
	drift := flag.Bool("drift", false, "arm workload-drift detection: converged queries whose serve latency no longer matches the query mix they converged under reopen sized to their observed budget")
	requestTimeout := flag.Duration("request-timeout", 0, "per-request deadline including the wait for the shard (0 = none); expired requests get 503")
	maxShardQueue := flag.Int("max-shard-queue", 0, "bound on each shard's waiting line (0 = unbounded); excess requests are shed with 503 + Retry-After")
	breaker := flag.Bool("breaker", false, "arm each shard's health breaker: 5 consecutive failed requests (engine error, shed, expired deadline) trip the shard into degraded mode; after 10s a full-fidelity probe decides")
	noise := flag.Bool("noise", false, "enable the OS-noise model on every shard's machine, seeded with -seed")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	if *exportPlans != "" || *importPlans != "" {
		if err := runPlanTransfer(*storePath, *exportPlans, *importPlans); err != nil {
			log.Fatal(err)
		}
		return
	}

	var m apq.Machine
	switch *machine {
	case "2s":
		m = apq.TwoSocketMachine()
	case "4s":
		m = apq.FourSocketMachine()
	case "2s-asym":
		m = apq.TwoSocketAsymMachine()
	case "4s-asym":
		m = apq.FourSocketAsymMachine()
	default:
		log.Fatalf("unknown machine %q (want 2s, 4s, 2s-asym, or 4s-asym)", *machine)
	}
	if *noise {
		m.Noise = apq.DefaultNoise()
		m.Seed = *seed
	}

	var db *apq.DB
	switch *bench {
	case "tpch":
		db = apq.LoadTPCH(*sf, *seed)
	case "tpcds":
		db = apq.LoadTPCDS(*sf, *seed)
	default:
		log.Fatalf("unknown benchmark %q (want tpch or tpcds)", *bench)
	}

	for i := range tenants {
		tenants[i].MaxSessions = *tenantSessions
		tenants[i].MaxInFlight = *tenantInflight
	}
	cfg := apq.ServerConfig{
		DB:             db,
		Machine:        m,
		DBIdentity:     apq.DBIdentity(*bench, *sf, *seed),
		Benchmark:      *bench,
		Admission:      *admission,
		CacheSize:      *cacheSize,
		Shards:         *shards,
		Tenants:        tenants,
		StorePath:      *storePath,
		Faults:         apq.FaultPlan(faults),
		RequestTimeout: *requestTimeout,
		MaxShardQueue:  *maxShardQueue,
		Breaker:        *breaker,
		Staleness:      *staleness,
		Drift:          *drift,
	}
	if len(peers) > 0 && *node == "" {
		log.Fatal("apqd: -peer requires -node (this daemon's own federation name)")
	}
	if *node != "" {
		cfg.Cluster = &apq.ClusterConfig{Self: *node, Peers: peers}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	s, err := apq.NewServer(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// Close is idempotent; the defer backstops panics while the explicit
	// closes below guarantee the store is flushed before log.Fatal exits.
	defer s.Close()
	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	if *pprofOn {
		// Host-side hotspots (the event core, the interpreter, JSON) are
		// inspectable in production: go tool pprof host:8080/debug/pprof/profile
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	storeNote := ""
	if *storePath != "" {
		storeNote = fmt.Sprintf(", store %s", *storePath)
	}
	if len(faults) > 0 {
		storeNote += fmt.Sprintf(", %d scheduled faults", len(faults))
	}
	if *staleness {
		storeNote += ", staleness armed"
	}
	if *drift {
		storeNote += ", drift armed"
	}
	if *node != "" {
		storeNote += fmt.Sprintf(", federation node %q (%d peers)", *node, len(peers))
	}
	log.Printf("apqd: serving %s sf=%g on %s (machine %s, %d shards, %d tenants, admission %v, pprof %v%s)",
		*bench, *sf, *addr, *machine, s.Shards(), 1+len(tenants), *admission, *pprofOn, storeNote)
	// Same keep-alive tuning as apq.Serve: retain idle client connections
	// (steady clients skip TCP setup) but bound header reads.
	hs := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case <-ctx.Done():
		shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := hs.Shutdown(shctx)
		cancel()
		// Flush the write-behind persistence queue and close the store
		// BEFORE any fatal exit: a log.Fatal here would skip the deferred
		// Close and lose converged plans persisted but not yet synced.
		s.Close()
		if err != nil {
			log.Fatalf("apqd: shutdown: %v", err)
		}
	case err := <-errc:
		s.Close()
		if err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}
	log.Print("apqd: shut down")
}

// runPlanTransfer handles -export-plans / -import-plans: both operate
// directly on the -store file — no database is generated and no server
// starts — so plans can be moved between hosts without warming anything.
func runPlanTransfer(storePath, exportPath, importPath string) error {
	if storePath == "" {
		return errors.New("apqd: -export-plans and -import-plans require -store")
	}
	if exportPath != "" && importPath != "" {
		return errors.New("apqd: -export-plans and -import-plans are mutually exclusive")
	}
	if exportPath != "" {
		n, err := apq.ExportPlans(storePath, exportPath)
		if err != nil {
			return err
		}
		log.Printf("apqd: exported %d plan records from %s to %s", n, storePath, exportPath)
		return nil
	}
	n, err := apq.ImportPlans(storePath, importPath)
	if err != nil {
		return err
	}
	log.Printf("apqd: imported %d plan records from %s into %s", n, importPath, storePath)
	return nil
}
