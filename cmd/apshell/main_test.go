package main_test

import (
	"strings"
	"testing"

	"repro/internal/cmdtest"
)

func TestApshellSmoke(t *testing.T) {
	bin := cmdtest.Build(t, "repro/cmd/apshell")

	out, code := cmdtest.Run(t, bin, "-q", "q6", "-sf", "0.2")
	if code != 0 {
		t.Fatalf("trivial invocation exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "executed q6") {
		t.Fatalf("unexpected output:\n%s", out)
	}

	out, code = cmdtest.Run(t, bin, "-q", "q6", "-sf", "0.2", "-dump")
	if code != 0 || !strings.Contains(out, "instructions") {
		t.Fatalf("-dump exited %d:\n%s", code, out)
	}

	for _, args := range [][]string{
		{"-q", "nosuchquery"},
		{"-q", "qx"},
		{"-q", "q999"}, // unimplemented query numbers
		{"-q", "ds9"},
		{"-definitely-not-a-flag"},
	} {
		out, code := cmdtest.Run(t, bin, args...)
		if code == 0 {
			t.Fatalf("%v exited 0, want non-zero:\n%s", args, out)
		}
		if strings.Contains(out, "panic:") {
			t.Fatalf("%v panicked instead of reporting the error:\n%s", args, out)
		}
	}
}
