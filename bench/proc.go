package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one child process of the harness (the daemon or the reference
// server). Every child is registered in children from start to stop, so any
// exit path — normal, failed, panicking or signalled — can reap them all.
type proc struct {
	name   string
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	done   chan struct{} // closed once the child has been waited for
}

var children = struct {
	sync.Mutex
	live map[*proc]struct{}
}{live: map[*proc]struct{}{}}

func newProc(name, bin string, args ...string) *proc {
	p := &proc{name: name, cmd: exec.Command(bin, args...), done: make(chan struct{})}
	p.cmd.Stderr = &p.stderr
	// If the harness itself is killed outright the kernel takes the child
	// with it: no orphan apqd can outlive a run.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return p
}

func (p *proc) start() error {
	if err := p.cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", p.name, err)
	}
	children.Lock()
	children.live[p] = struct{}{}
	children.Unlock()
	go func() {
		p.cmd.Wait()
		close(p.done)
	}()
	return nil
}

// stop sends SIGTERM, waits for the child to end (SIGKILL after 5 s) and
// unregisters it. Safe to call twice.
func (p *proc) stop() {
	children.Lock()
	_, live := children.live[p]
	delete(children.live, p)
	children.Unlock()
	if !live {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
}

// stopAll reaps every live child; main defers it and the signal handler
// calls it.
func stopAll() {
	children.Lock()
	live := make([]*proc, 0, len(children.live))
	for p := range children.live {
		live = append(live, p)
	}
	children.Unlock()
	for _, p := range live {
		p.stop()
	}
}

// saveStderr keeps a failed child's stderr under bench/out/ for the post-mortem.
func (p *proc) saveStderr(outDir string) {
	if p.stderr.Len() == 0 || os.MkdirAll(outDir, 0o755) != nil {
		return
	}
	path := filepath.Join(outDir, fmt.Sprintf("%s-%d.stderr", p.name, p.cmd.Process.Pid))
	if os.WriteFile(path, p.stderr.Bytes(), 0o644) == nil {
		fmt.Fprintf(os.Stderr, "bench: %s stderr saved to %s\n", p.name, path)
	}
}

// freeAddr asks the kernel for an unused loopback port. apqd does not report
// the port it bound, so ":0" has to be resolved on its behalf; the window
// between closing the probe socket and the daemon's bind is harmless on a
// host that runs one benchmark at a time.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startDaemon execs apqd for w and returns once /healthz answers 200. The
// returned duration is exec → first healthy reply: the set-up time a user of
// the daemon waits before the first query.
func startDaemon(bin string, w *workload, seed int64) (*proc, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-addr", addr, "-sf", strconv.FormatFloat(w.SF, 'g', -1, 64),
		"-seed", strconv.FormatInt(seed, 10), "-shards", "2"}
	if w.Cache > 0 {
		args = append(args, "-cache", strconv.Itoa(w.Cache))
	}
	p := newProc("apqd-"+w.Name, bin, args...)
	p.addr = addr
	t0 := time.Now()
	if err := p.start(); err != nil {
		return nil, 0, err
	}
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for time.Since(t0) < 60*time.Second {
		resp, err := hc.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(t0), nil
			}
		}
		select {
		case <-p.done:
			p.stop()
			return nil, 0, fmt.Errorf("%s exited during start-up: %s", p.name, lastLine(p.stderr.String()))
		case <-time.After(200 * time.Microsecond):
		}
	}
	p.stop()
	return nil, 0, fmt.Errorf("%s never became healthy on %s: %s", p.name, addr, lastLine(p.stderr.String()))
}

// startRefServer re-execs this binary as the reference server and reads the
// address it bound from its first line of output.
func startRefServer() (*proc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	p := newProc("refserver", self, "-refserver")
	out, in, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	defer out.Close()
	p.cmd.Stdout = in
	err = p.start()
	in.Close()
	if err != nil {
		return nil, err
	}
	line, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		p.stop()
		return nil, fmt.Errorf("refserver printed no address: %w", err)
	}
	p.addr = strings.TrimSpace(line)
	return p, nil
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		s = s[i+1:]
	}
	return s
}

// cpuSeconds is the CPU time pid has consumed, summed over its threads from
// /proc/<pid>/task/*/schedstat (nanosecond run time). utime+stime in
// /proc/<pid>/stat is sampled at the 10 ms tick, which for a process that
// runs in 30 µs bursts is Poisson noise of a tenth or more over a phase; the
// scheduler's own accounting is exact. Falls back to stat where schedstat is
// not compiled in.
func cpuSeconds(pid int) (float64, error) {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	var ns int64
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		f := strings.Fields(string(b))
		if len(f) > 0 {
			v, _ := strconv.ParseInt(f[0], 10, 64)
			ns += v
		}
	}
	if ns > 0 {
		return float64(ns) / 1e9, nil
	}
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the whole line.
	rest := string(b)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return float64(ut+st) / 100, nil
}

// peakRSSMB reads VmHWM, the process's high-water resident set.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

func loadAvg1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}
