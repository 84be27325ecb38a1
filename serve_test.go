package apq_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	apq "repro"
)

func TestNewServerServesQueries(t *testing.T) {
	s, err := apq.NewServer(apq.ServerConfig{
		DB:         apq.LoadTPCH(0.5, 42),
		Machine:    apq.TwoSocketMachine(),
		DBIdentity: apq.DBIdentity("tpch", 0.5, 42),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var prev struct {
		Session   string  `json:"session"`
		State     string  `json:"state"`
		Run       int     `json:"run"`
		LatencyNs float64 `json:"latency_ns"`
	}
	serialNs := 0.0
	for i := 0; i < 5; i++ {
		resp, err := http.Post(ts.URL+"/query", "application/json",
			bytes.NewReader([]byte(`{"query":6}`)))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&prev); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if prev.Run != i {
			t.Fatalf("request %d executed run %d — session state not kept alive", i, prev.Run)
		}
		if i == 0 {
			serialNs = prev.LatencyNs
		}
	}
	if prev.LatencyNs >= serialNs {
		t.Fatalf("run 4 latency %.0fns did not improve on serial %.0fns", prev.LatencyNs, serialNs)
	}
}

func TestServeGracefulShutdown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- apq.Serve(ctx, addr, apq.ServerConfig{
			DB:      apq.LoadTPCH(0.2, 42),
			Machine: apq.TwoSocketMachine(),
		})
	}()
	// Wait for the listener, then issue one request and shut down.
	url := "http://" + addr
	var ok bool
	for i := 0; i < 100; i++ {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			ok = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !ok {
		cancel()
		t.Fatal("server never became healthy")
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after graceful shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after cancel")
	}
}
