// Package cmdtest builds and runs the repo's command binaries for smoke
// tests: every cmd must build, serve a trivial invocation, and exit
// non-zero on bad flags or query names.
package cmdtest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os/exec"
	"path"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// Build compiles the import path (e.g. "repro/cmd/apshell") into a temp dir
// and returns the binary path.
func Build(t *testing.T, importPath string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), path.Base(importPath))
	cmd := exec.Command("go", "build", "-o", bin, importPath)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", importPath, err, out)
	}
	return bin
}

// Run executes the binary and returns its combined output and exit code.
// A binary still running after two minutes (plus a grace period for output
// pipes held by grandchildren) is killed and fails the test: a hang is not
// an exit code, so the callers' "must exit non-zero" cases cannot mistake a
// binary that kept serving on a bad flag for one that rejected it.
func Run(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	out, code, err := run(2*time.Minute, bin, args...)
	if err != nil {
		t.Fatalf("run %s %v: %v\n%s", bin, args, err, out)
	}
	return out, code
}

// run is Run below the testing.T: a non-zero exit is a code, while a child
// that could not start or had to be killed at the timeout is an error.
func run(timeout time.Duration, bin string, args ...string) (string, int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.WaitDelay = 5 * time.Second
	out, err := cmd.CombinedOutput()
	if ctx.Err() != nil {
		return string(out), -1, fmt.Errorf("still running after %v, killed", timeout)
	}
	code, err := exitCode(err)
	return string(out), code, err
}

// exitCode splits a Wait error into the child's exit code and anything else.
func exitCode(err error) (int, error) {
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode(), nil
	}
	return 0, err
}

// Daemon is a binary started by Start that runs until Stop.
type Daemon struct {
	cmd *exec.Cmd
	out bytes.Buffer
}

// Start launches the binary in the background, capturing its combined
// output. The process is killed when the test ends if Stop was not called.
func Start(t *testing.T, bin string, args ...string) *Daemon {
	t.Helper()
	d := &Daemon{cmd: exec.Command(bin, args...)}
	d.cmd.Stdout, d.cmd.Stderr = &d.out, &d.out
	if err := d.cmd.Start(); err != nil {
		t.Fatalf("start %s %v: %v", bin, args, err)
	}
	t.Cleanup(func() {
		d.cmd.Process.Kill() // both fail harmlessly once Stop has reaped the process
		d.cmd.Wait()
	})
	return d
}

// Stop sends SIGTERM, waits for the process to exit and returns its combined
// output and exit code. A daemon still running 30 seconds later is killed
// and fails the test.
func (d *Daemon) Stop(t *testing.T) (string, int) {
	t.Helper()
	d.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process shows in the exit code
	kill := time.AfterFunc(30*time.Second, func() { d.cmd.Process.Kill() })
	err := d.cmd.Wait()
	if !kill.Stop() {
		t.Fatalf("%s did not exit within 30s of SIGTERM, killed\n%s", d.cmd.Path, d.out.String())
	}
	code, err := exitCode(err)
	if err != nil {
		t.Fatalf("wait %s: %v\n%s", d.cmd.Path, err, d.out.String())
	}
	return d.out.String(), code
}
