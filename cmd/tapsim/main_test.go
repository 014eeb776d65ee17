package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"

	"taps/internal/experiments"
)

// argsEnv carries the arguments of a child tapsim: when it is set, the test
// binary runs main with them instead of the tests.
const argsEnv = "TAPSIM_TEST_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(argsEnv); ok {
		os.Args = append([]string{"tapsim"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runTapsim runs tapsim with args in a child process whose stdout goes to
// stdout, and returns its exit code and stderr.
func runTapsim(t *testing.T, stdout io.Writer, args ...string) (code int, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), argsEnv+"="+strings.Join(args, "\n"))
	var errBuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = stdout, &errBuf
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, errBuf.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), errBuf.String()
	}
	t.Fatal(err)
	return 0, ""
}

// TestUnknownSchedulerIsAnError runs tapsim with a misspelt scheduler name
// in a child process: it must print one error line naming the scheduler
// and exit 1 before any figure runs.
func TestUnknownSchedulerIsAnError(t *testing.T) {
	var stdout bytes.Buffer
	code, stderr := runTapsim(t, &stdout, "-scale", "bench", "-fig", "6", "-schedulers", "TAPS,Bogus")
	if code != 1 {
		t.Fatalf("tapsim exited with %d, want 1; stderr:\n%s", code, stderr)
	}
	if !strings.HasPrefix(stderr, `tapsim: unknown scheduler "Bogus"`) || strings.Count(stderr, "\n") != 1 {
		t.Errorf("stderr = %q, want one line naming the unknown scheduler", stderr)
	}
	if stdout.Len() != 0 {
		t.Errorf("a figure ran before the error: stdout = %q", stdout.String())
	}
}

// TestUnknownFigureOrFormatIsAnError: a misspelt or removed -fig name,
// -format or -schedulers name must fail with one line listing the known
// values before any figure runs, even when a valid one comes first.
func TestUnknownFigureOrFormatIsAnError(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-fig", "1,nope"}, `tapsim: unknown figure "nope" (known: 1, 2, 3, `},
		{[]string{"-fig", "1,6", "-format", "bogus"}, `tapsim: unknown format "bogus" (known: table, csv, json, chart)`},
		{[]string{"-fig", "ficonn"}, `tapsim: unknown figure "ficonn" (known: 1, 2, 3, `},
		{[]string{"-fig", "6", "-schedulers", "TAPS,D2TCP"}, `tapsim: unknown scheduler "D2TCP" (known: FairSharing, D3, PDQ, Baraat, Varys, TAPS)`},
		{[]string{"-fig", "6", "-schedulers", "Varys-CCT"}, `tapsim: unknown scheduler "Varys-CCT" (known: FairSharing, D3, PDQ, Baraat, Varys, TAPS)`},
	} {
		var stdout bytes.Buffer
		code, stderr := runTapsim(t, &stdout, append([]string{"-scale", "bench"}, tc.args...)...)
		if code != 1 {
			t.Errorf("%v: tapsim exited with %d, want 1; stderr:\n%s", tc.args, code, stderr)
		}
		if !strings.HasPrefix(stderr, tc.want) || strings.Count(stderr, "\n") != 1 {
			t.Errorf("%v: stderr = %q, want one line starting %q", tc.args, stderr, tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: a figure ran before the error: stdout = %q", tc.args, stdout.String())
		}
	}
}

// TestFailedWriteIsAnError: when the output cannot be written, to the -o
// file or to stdout, tapsim must say so and exit 1.
func TestFailedWriteIsAnError(t *testing.T) {
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skipf("no /dev/full: %v", err)
	}
	defer full.Close()
	for _, tc := range []struct {
		name   string
		stdout io.Writer
		args   []string
	}{
		{"-o", io.Discard, []string{"-o", "/dev/full"}},
		{"stdout", full, nil},
	} {
		code, stderr := runTapsim(t, tc.stdout, append([]string{"-scale", "bench", "-fig", "1"}, tc.args...)...)
		if code != 1 || !strings.Contains(stderr, "no space left on device") {
			t.Errorf("%s: tapsim exited with %d, stderr %q; want exit 1 naming the failed write", tc.name, code, stderr)
		}
	}
}

// fig14Summary draws Fig. 14 at scale and returns its summary line.
func fig14Summary(t *testing.T, scale experiments.Scale) string {
	t.Helper()
	var buf bytes.Buffer
	if err := runFigure(&buf, "14", scale, experiments.AllSchedulers(), "table", nil); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	return lines[len(lines)-1]
}

// TestFig14PaperScaleIsLiteralTestbed: at the paper scale Fig. 14 runs the
// literal §VI load (PaperTestbedSpec), under which both transports finish
// nearly every task.
func TestFig14PaperScaleIsLiteralTestbed(t *testing.T) {
	got := fig14Summary(t, experiments.PaperScale())
	want := "TAPS tasks 19/20 (rejected 1), wasted 0.0 MB; FairSharing tasks 19/20, wasted 0.0 MB"
	if got != want {
		t.Errorf("summary = %q, want %q", got, want)
	}
}

// TestFig14FollowsSeed: -seed reaches the Fig. 14 workload.
func TestFig14FollowsSeed(t *testing.T) {
	scale := experiments.BenchScale()
	scale.Seed = 3
	got := fig14Summary(t, scale)
	want := "TAPS tasks 13/20 (rejected 7), wasted 0.0 MB; FairSharing tasks 6/20, wasted 6.9 MB"
	if got != want {
		t.Errorf("summary = %q, want %q", got, want)
	}
}
