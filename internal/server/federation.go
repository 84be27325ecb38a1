// The federation seam: one interface a federated daemon plugs in at New
// (internal/cluster's Coordinator), consulted as a stage of the one serve
// path, and the federation's two routes, served through the same handle
// wrapper and readBody as every other route.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"

	"repro/internal/store"
)

// Federation joins a daemon to its peers. The server calls it from the
// /query path, the convergence-record hook and GET /stats, and hands it the
// bodies of /cluster/replicate and /admin/peers already read and decoded.
type Federation interface {
	// Route is /query's federation stage, reached once per request decoded
	// and resolved to its fingerprint fp, before any tenant quota or engine
	// work. When another node serves fp it relays that node's reply to w —
	// body, the request's bytes, goes on verbatim — and reports true; false
	// serves the request here. A request a peer already routed
	// (ForwardedHeader) is always served here.
	Route(w http.ResponseWriter, r *http.Request, body []byte, fp string) bool
	// Observe receives every convergence record the serving layer produces,
	// the store's records; it must not block.
	Observe(store.Record)
	// Applied counts the replicated records /cluster/replicate applied.
	Applied(n int)
	// Join and Leave change the membership (POST and DELETE /admin/peers)
	// and return the ring's nodes afterwards.
	Join(name, url string) ([]string, error)
	Leave(name string) ([]string, error)
	// ClusterStats is the /stats "cluster" block and the GET /admin/peers
	// reply.
	ClusterStats() any
}

// maxReplicationBody bounds one replication intake document; generous —
// a full replica-set sync push from a large peer must fit.
const maxReplicationBody = 16 << 20

// handleReplicate is POST /cluster/replicate, the replication intake: an
// APQXPORT document from a peer's replicator, applied record by record
// through the same identity gates as disk rehydration. Records that don't
// belong here (unknown tenant, foreign DB identity, stale identity) are
// skipped, not errors — membership may lag.
func (s *Server) handleReplicate(b *ioBuf, w http.ResponseWriter, r *http.Request) {
	var recs []store.Record
	if !s.readBody(b, w, r, maxReplicationBody, func(data []byte) (err error) {
		// Decoded records alias their document, and the store's write-behind
		// queue keeps them past the request: decode a copy, not the pooled
		// buffer.
		recs, err = store.DecodeRecords(bytes.Clone(data), "replication payload")
		return err
	}) {
		return
	}
	applied := 0
	for _, rec := range recs {
		if s.applyReplica(rec) {
			applied++
		}
	}
	s.cfg.Federation.Applied(applied)
	b.reply(w, http.StatusOK, map[string]int{"received": len(recs), "applied": applied})
}

// handlePeers is /admin/peers, the membership surface: GET lists, POST
// {"name","url"} joins, DELETE ?name= leaves.
func (s *Server) handlePeers(b *ioBuf, w http.ResponseWriter, r *http.Request) {
	var (
		verb, name string
		nodes      []string
		err        error
	)
	switch r.Method {
	case http.MethodGet:
		b.reply(w, http.StatusOK, s.cfg.Federation.ClusterStats())
		return
	case http.MethodPost:
		var p struct {
			Name string `json:"name"`
			URL  string `json:"url"`
		}
		if !s.readBody(b, w, r, maxRequestBody, func(data []byte) error { return json.Unmarshal(data, &p) }) {
			return
		}
		verb, name = "joined", p.Name
		nodes, err = s.cfg.Federation.Join(p.Name, p.URL)
	case http.MethodDelete:
		verb, name = "left", r.URL.Query().Get("name")
		nodes, err = s.cfg.Federation.Leave(name)
	default:
		s.writeErr(b, w, http.StatusMethodNotAllowed, errors.New("GET, POST or DELETE only"))
		return
	}
	if err != nil {
		s.writeErr(b, w, http.StatusBadRequest, err)
		return
	}
	b.reply(w, http.StatusOK, map[string]any{verb: name, "nodes": nodes})
}
