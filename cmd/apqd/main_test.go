package main_test

import (
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cmdtest"
)

func TestApqdSmoke(t *testing.T) {
	bin := cmdtest.Build(t, "repro/cmd/apqd")

	// Boot the daemon for real: listen -> serve -> SIGTERM -> drain ->
	// "apqd: shut down", with the convergence store flushed on the way out
	// and both re-adaptation detectors armed.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	storePath := filepath.Join(t.TempDir(), "plans.apqs")
	d := cmdtest.Start(t, bin, "-addr", addr, "-sf", "0.2", "-shards", "1", "-store", storePath, "-staleness", "-drift")
	base := "http://" + addr
	healthy := false
	for i := 0; i < 600 && !healthy; i++ {
		time.Sleep(50 * time.Millisecond)
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			healthy = resp.StatusCode == http.StatusOK
		}
	}
	if !healthy {
		out, code := d.Stop(t)
		t.Fatalf("apqd never answered /healthz on %s (exit %d):\n%s", addr, code, out)
	}
	var runs [2]int
	for i := range runs {
		resp, err := http.Post(base+"/query", "application/json", strings.NewReader(`{"query":6}`))
		if err != nil {
			t.Fatal(err)
		}
		var reply struct {
			Run int `json:"run"`
		}
		err = json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("POST /query #%d: status %d, decode error %v", i+1, resp.StatusCode, err)
		}
		runs[i] = reply.Run
	}
	if runs[1] != runs[0]+1 {
		t.Fatalf("repeated query did not step its session: run %d then %d", runs[0], runs[1])
	}
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /stats: status %d", resp.StatusCode)
	}
	out, code := d.Stop(t)
	if code != 0 || !strings.Contains(out, "apqd: shut down") {
		t.Fatalf("SIGTERM: exit %d, want 0 and the shutdown log line:\n%s", code, out)
	}
	if !strings.Contains(out, "staleness armed, drift armed") {
		t.Fatalf("-staleness -drift: the serving log line does not say both detectors are armed:\n%s", out)
	}
	if out, code := cmdtest.Run(t, bin, "-store", storePath, "-export-plans", filepath.Join(t.TempDir(), "plans.apqx")); code != 0 {
		t.Fatalf("-export-plans of the store the daemon left behind exited %d:\n%s", code, out)
	}

	for _, args := range [][]string{
		{"-bench", "nosuchbench"},
		{"-machine", "9s"},
		{"-definitely-not-a-flag"},
		{"-selfbench"}, // deleted with the in-daemon benchmark: must stay unknown
		{"-simbench"},
		{"unexpected-positional"},
	} {
		if out, code := cmdtest.Run(t, bin, args...); code == 0 {
			t.Fatalf("%v exited 0, want non-zero:\n%s", args, out)
		}
	}

	// Malformed repeatable flags must exit non-zero with a diagnostic that
	// names the flag and quotes the whole offending value — with several
	// -tenant/-fault/-peer flags on one command line, "invalid value" alone
	// doesn't say which one broke.
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-tenant", "missing-spec"}, `bad -tenant value "missing-spec"`},
		{[]string{"-tenant", "acme=tpch:notanumber:42"}, `bad -tenant value "acme=tpch:notanumber:42"`},
		{[]string{"-tenant", "acme=tpch:1:42:extra"}, `bad -tenant value "acme=tpch:1:42:extra"`},
		{[]string{"-fault", "no-at-sign"}, `bad -fault value "no-at-sign"`},
		{[]string{"-fault", "meteor@5e9"}, `bad -fault value "meteor@5e9"`},
		{[]string{"-fault", "throttle@5e9:factor=fast"}, `bad -fault value "throttle@5e9:factor=fast"`},
		{[]string{"-node", "a", "-peer", "nohost"}, `bad -peer value "nohost"`},
		{[]string{"-node", "a", "-peer", "b=127.0.0.1:8081"}, `bad -peer value "b=127.0.0.1:8081"`},
		{[]string{"-node", "a", "-peer", "b=http://x:1", "-peer", "b=http://y:2"}, `bad -peer value "b=http://y:2"`},
		{[]string{"-peer", "b=http://x:1"}, "-peer requires -node"},
	} {
		out, code := cmdtest.Run(t, bin, tc.args...)
		if code == 0 {
			t.Fatalf("%v exited 0, want non-zero:\n%s", tc.args, out)
		}
		if !strings.Contains(out, tc.want) {
			t.Fatalf("%v diagnostic missing %q:\n%s", tc.args, tc.want, out)
		}
	}
}

// TestApqdFlagsPinned pins the daemon's flag set the way
// TestServerConfigFieldsPinned pins the facade's fields: every flag `apqd -h`
// lists, by name and value kind. A new flag, a removed one or a changed kind
// shows up in review as a diff of testdata/flags.txt.
func TestApqdFlagsPinned(t *testing.T) {
	bin := cmdtest.Build(t, "repro/cmd/apqd")
	out, code := cmdtest.Run(t, bin, "-h")
	if code != 0 {
		t.Fatalf("apqd -h exited %d:\n%s", code, out)
	}
	var got []string
	for _, line := range strings.Split(out, "\n") {
		// flag.PrintDefaults: "  -name kind" (kind absent for a bool), the
		// usage text on the next, tab-indented line.
		if strings.HasPrefix(line, "  -") {
			got = append(got, strings.TrimSpace(line))
		}
	}
	raw, err := os.ReadFile("testdata/flags.txt")
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.Split(strings.TrimSpace(string(raw)), "\n"); !reflect.DeepEqual(got, want) {
		t.Errorf("apqd flags changed; got (one per line, the format of testdata/flags.txt):\n%s", strings.Join(got, "\n"))
	}
}
