package apq_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
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

// TestServerConfigFieldsPinned pins the facade's config surface: every
// exported field of ServerConfig, and of every struct it reaches through
// pointers, slices and arrays, by dotted path and kind. A new knob, a
// removed one or a changed kind shows up in review as a diff of
// testdata/server_config_fields.txt.
func TestServerConfigFieldsPinned(t *testing.T) {
	var got []string
	var walk func(prefix string, typ reflect.Type, open map[reflect.Type]bool)
	walk = func(prefix string, typ reflect.Type, open map[reflect.Type]bool) {
		for k := typ.Kind(); k == reflect.Pointer || k == reflect.Slice || k == reflect.Array; k = typ.Kind() {
			typ = typ.Elem()
		}
		if typ.Kind() != reflect.Struct || open[typ] {
			return
		}
		open[typ] = true
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				got = append(got, prefix+f.Name+" "+f.Type.Kind().String())
				walk(prefix+f.Name+".", f.Type, open)
			}
		}
		delete(open, typ)
	}
	walk("", reflect.TypeOf(apq.ServerConfig{}), map[reflect.Type]bool{})
	raw, err := os.ReadFile("testdata/server_config_fields.txt")
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.Split(strings.TrimSpace(string(raw)), "\n"); !reflect.DeepEqual(got, want) {
		t.Errorf("apq.ServerConfig fields changed; got (one per line, the format of testdata/server_config_fields.txt):\n%s", strings.Join(got, "\n"))
	}
}
