package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run the command itself: with runMainEnv set, the test
// binary is statsadvisor, parsing the arguments it was started with.
func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const runMainEnv = "STATSADVISOR_TEST_RUN_MAIN"

// runCommand runs statsadvisor with args and returns its exit status,
// standard output and standard error.
func runCommand(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatal(err)
	}
	return code, out.String(), errOut.String()
}

// TestDependentFlagWithoutItsFlagFails: a flag documented as needing another
// one is rejected, with exit status 2 and the missing flag named, before any
// work — not silently dropped.
func TestDependentFlagWithoutItsFlagFails(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		missing string
	}{
		{[]string{"-build-timeout", "1s"}, "-retries"},
		{[]string{"-retries", "-1", "-build-timeout", "1s"}, "-retries"},
		{[]string{"-max-fold-fraction", "0.05"}, "-incremental"},
	} {
		code, stdout, stderr := runCommand(t, tc.args...)
		if code != 2 || !strings.Contains(stderr, tc.missing) || stdout != "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 naming %s and no output",
				tc.args, code, stdout, stderr, tc.missing)
		}
	}
	// With the flag it depends on, the dependent flag is accepted; the run
	// then stops on the missing workload, an ordinary failure.
	code, _, stderr := runCommand(t, "-scale", "0.05", "-retries", "0", "-build-timeout", "1s",
		"-incremental", "-max-fold-fraction", "0.05")
	if code != 1 || !strings.Contains(stderr, "-workload") {
		t.Errorf("satisfied dependencies: exit %d, stderr %q; want exit 1 asking for a workload", code, stderr)
	}
}
