package cmdtest

import (
	"os/exec"
	"testing"
	"time"
)

// A child killed at the timeout must surface as an error, not as the
// non-zero exit code the smoke tests' negative cases would accept.
func TestRunReportsHungChildAsError(t *testing.T) {
	sleep, err := exec.LookPath("sleep")
	if err != nil {
		t.Skip("no sleep binary on PATH")
	}
	if out, code, err := run(100*time.Millisecond, sleep, "60"); err == nil {
		t.Fatalf("hung child reported as exit code %d, want an error\n%s", code, out)
	}
	if _, code, err := run(time.Minute, sleep, "not-a-duration"); err != nil || code == 0 {
		t.Fatalf("failing child: code %d, err %v; want a non-zero code and no error", code, err)
	}
}
