package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestUnknownSchedulerIsAnError runs tapsim with a misspelt scheduler name
// in a child process: it must print one error line naming the scheduler
// and exit 1 before any figure runs.
func TestUnknownSchedulerIsAnError(t *testing.T) {
	if os.Getenv("TAPSIM_TEST_MAIN") == "1" {
		os.Args = []string{"tapsim", "-scale", "bench", "-fig", "6", "-schedulers", "TAPS,Bogus"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownSchedulerIsAnError$")
	cmd.Env = append(os.Environ(), "TAPSIM_TEST_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("tapsim exited with %v, want exit status 1; stderr:\n%s", err, stderr.String())
	}
	if got := stderr.String(); !strings.HasPrefix(got, `tapsim: unknown scheduler "Bogus"`) || strings.Count(got, "\n") != 1 {
		t.Errorf("stderr = %q, want one line naming the unknown scheduler", got)
	}
	if stdout.Len() != 0 {
		t.Errorf("a figure ran before the error: stdout = %q", stdout.String())
	}
}
