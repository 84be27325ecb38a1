package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/server"
)

// Remote is the HTTP client for one peer daemon. Transport failures come
// back as errors; what a peer's reply means is the caller's decision.
type Remote struct {
	name string
	base string
	hc   *http.Client
}

// NewRemote builds a client for the peer daemon at baseURL (scheme://host:
// port, no trailing slash needed). Per-request deadlines come from the
// caller's context; the client itself sets none.
func NewRemote(name, baseURL string) *Remote {
	return &Remote{
		name: name,
		base: strings.TrimRight(baseURL, "/"),
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 4,
			IdleConnTimeout:     30 * time.Second,
		}},
	}
}

// forwardedHeaders are the client headers that change how the owner serves a
// /query — result negotiation, tenant routing, frozen fidelity — and so must
// travel with a forwarded request.
var forwardedHeaders = [...]string{"Accept", "X-APQ-Tenant", server.FrozenHeader}

// forward POSTs a client's /query to the peer: the client's body bytes
// verbatim (the owner decodes exactly what this node decoded), the client's
// forwardedHeaders, and the forwarded marker, so the peer serves it locally
// instead of re-routing (no forwarding loops). The peer's response comes back
// unread whatever its status; the caller relays or discards it and must
// Close its body.
func (r *Remote) forward(ctx context.Context, client http.Header, body []byte) (*http.Response, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+"/query", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", r.name, err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(server.ForwardedHeader, "1")
	for _, h := range forwardedHeaders {
		if v := client.Get(h); v != "" {
			hreq.Header.Set(h, v)
		}
	}
	hresp, err := r.hc.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("cluster: %s unreachable: %w", r.name, err)
	}
	return hresp, nil
}

// Health fetches the peer's GET /healthz report. A degraded peer answers
// 503 with a body — that decodes and returns like a 200 (OK=false tells the
// story); only an unreachable peer is an error.
func (r *Remote) Health(ctx context.Context) (*server.HealthResponse, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+"/healthz", nil)
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", r.name, err)
	}
	hresp, err := r.hc.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("cluster: %s unreachable: %w", r.name, err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK && hresp.StatusCode != http.StatusServiceUnavailable {
		return nil, fmt.Errorf("cluster: %s replied %s", r.name, hresp.Status)
	}
	var resp server.HealthResponse
	if err := json.NewDecoder(hresp.Body).Decode(&resp); err != nil {
		return nil, fmt.Errorf("cluster: %s sent a malformed reply: %w", r.name, err)
	}
	return &resp, nil
}

// replicate ships an APQXPORT document to the peer's replication intake.
func (r *Remote) replicate(ctx context.Context, payload []byte) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+"/cluster/replicate", bytes.NewReader(payload))
	if err != nil {
		return fmt.Errorf("cluster: %s: %w", r.name, err)
	}
	hreq.Header.Set("Content-Type", "application/octet-stream")
	hresp, err := r.hc.Do(hreq)
	if err != nil {
		return fmt.Errorf("cluster: %s unreachable: %w", r.name, err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: %s replied %s", r.name, hresp.Status)
	}
	io.Copy(io.Discard, io.LimitReader(hresp.Body, 1<<16))
	return nil
}

// Retire releases the client's pooled connections. The remote daemon keeps
// running — retiring a peer client is a local decision.
func (r *Remote) Retire() {
	r.hc.CloseIdleConnections()
}
