package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"autostats/internal/bench"
)

// TestExpFlag runs the command in a child process: an unknown -exp value
// exits with status 2, runs nothing and lists every valid name. "none" is
// such a value.
func TestExpFlag(t *testing.T) {
	if args := os.Getenv("EXPERIMENTS_TEST_ARGS"); args != "" {
		os.Args = append([]string{"experiments"}, strings.Fields(args)...)
		main()
		return
	}
	run := func(args string) (string, int) {
		cmd := exec.Command(os.Args[0], "-test.run=^TestExpFlag$")
		cmd.Env = append(os.Environ(), "EXPERIMENTS_TEST_ARGS="+args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			return string(out), exit.ExitCode()
		}
		if err != nil {
			t.Fatalf("%s: %v", args, err)
		}
		return string(out), 0
	}

	out, code := run("-exp fig5")
	if code != 2 {
		t.Errorf("-exp fig5 exited %d, want 2; output:\n%s", code, out)
	}
	if strings.Contains(out, "command:") {
		t.Errorf("-exp fig5 started a run:\n%s", out)
	}
	valid := []string{"all", "intro", "fig3", "fig4", "fig4sc", "table1"}
	for _, a := range bench.Ablations {
		valid = append(valid, a.Name)
	}
	for _, name := range valid {
		if !strings.Contains(out, name) {
			t.Errorf("-exp fig5 error does not list %q:\n%s", name, out)
		}
	}

	if out, code := run("-exp none"); code != 2 || strings.Contains(out, "command:") {
		t.Errorf("-exp none exited %d, want 2, or started a run; output:\n%s", code, out)
	}
}
