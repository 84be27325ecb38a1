package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/tpch"
)

// TestBreakerZeroValueJitter: a breaker that never drew a jitter (zero
// value, as embedded in each shard) must treat the scale as 1, not 0 — an
// unjittered breaker must not probe instantly.
func TestBreakerZeroValueJitter(t *testing.T) {
	now := time.Unix(0, 0)
	b := &Breaker{Cooldown: time.Minute, NowFn: func() time.Time { return now }}
	b.mu.Lock()
	b.state = BreakerOpen // forced open without trip(): jitter stays 0
	b.openedAt = now
	b.mu.Unlock()
	if m := b.Admit(); m != BreakerFrozen {
		t.Fatal("zero-jitter open breaker probed before its cooldown")
	}
	now = now.Add(time.Minute)
	if m := b.Admit(); m != BreakerProbe {
		t.Fatal("zero-jitter open breaker never probed")
	}
}

// TestRetryAfterJitterBounds pins the shed reply's backoff hint to 1–3
// seconds across the whole jitter range.
func TestRetryAfterJitterBounds(t *testing.T) {
	s := &Server{}
	for _, r := range []float64{0, 0.1, 0.33, 0.34, 0.5, 0.66, 0.67, 0.9, 0.999} {
		r := r
		s.randFn = func() float64 { return r }
		v, err := strconv.Atoi(s.retryAfter())
		if err != nil {
			t.Fatalf("r=%v: non-numeric Retry-After: %v", r, err)
		}
		if v < 1 || v > 3 {
			t.Fatalf("r=%v: Retry-After %d out of [1,3]", r, v)
		}
	}
	// Edges: 0 maps to 1, the top of the range maps to 3.
	s.randFn = func() float64 { return 0 }
	if got := s.retryAfter(); got != "1" {
		t.Fatalf("Retry-After at r=0: %s, want 1", got)
	}
	s.randFn = func() float64 { return 0.999 }
	if got := s.retryAfter(); got != "3" {
		t.Fatalf("Retry-After at r=0.999: %s, want 3", got)
	}
	// The default source (nil randFn) stays in bounds too.
	s.randFn = nil
	for i := 0; i < 100; i++ {
		if v, _ := strconv.Atoi(s.retryAfter()); v < 1 || v > 3 {
			t.Fatalf("default source produced Retry-After %d", v)
		}
	}
}

// TestOverQuota429RetryAfter: an over-quota tenant rejection is backpressure
// like a shed — the 429 reply carries the same jittered Retry-After hint the
// shed 503 does, drawn from the same seam.
func TestOverQuota429RetryAfter(t *testing.T) {
	cat := tpch.Generate(tpch.Config{SF: 0.1, Seed: 7})
	s, ts := newTestServer(t, Config{
		Benchmark: "tpch",
		Admission: true,
		Tenants:   []Tenant{{Name: "acme", Catalog: cat, MaxInFlight: 1}},
	})
	s.randFn = func() float64 { return 0.999 } // top of the window: hint is "3"

	// Hold one acme request past the in-flight gate via the admission seam.
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.admitHook = func() {
		once.Do(func() { close(entered) })
		<-release
	}
	done := make(chan int, 1)
	go func() {
		_, code := postTenant(t, ts.URL, "acme", QueryRequest{Query: 6}, false)
		done <- code
	}()
	<-entered
	s.admitHook = nil
	defer func() {
		close(release)
		<-done
	}()

	body, _ := json.Marshal(QueryRequest{Query: 14, Tenant: "acme"})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota request: status %d, want 429", resp.StatusCode)
	}
	got := resp.Header.Get("Retry-After")
	if got != "3" {
		t.Fatalf("429 Retry-After = %q, want the pinned jitter's 3", got)
	}
	if v, err := strconv.Atoi(got); err != nil || v < 1 || v > 3 {
		t.Fatalf("429 Retry-After %q outside [1,3]", got)
	}
}
