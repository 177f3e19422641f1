package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSoakFailureFile: a long-mode soak with a failing seed writes the seed
// to the failure file; when the file cannot be created it says so on stderr
// and still exits 1.
func TestSoakFailureFile(t *testing.T) {
	fail := func(int64) (int, error) { return 1, nil }
	dir := t.TempDir()

	good := filepath.Join(dir, "seeds.txt")
	if code := soak(context.Background(), "", 7, time.Nanosecond, good, fail); code != 1 {
		t.Fatalf("soak exited %d, want 1", code)
	}
	if b, err := os.ReadFile(good); err != nil || string(b) != "7\n" {
		t.Fatalf("failure file = %q, %v; want \"7\\n\"", b, err)
	}

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	code := soak(context.Background(), "", 7, time.Nanosecond, filepath.Join(dir, "missing", "seeds.txt"), fail)
	os.Stderr = stderr
	w.Close()
	out, _ := io.ReadAll(r)
	if code != 1 {
		t.Errorf("soak exited %d with an unwritable failure file, want 1", code)
	}
	if !strings.Contains(string(out), "writing failing seeds") {
		t.Errorf("stderr %q does not report the failure-file error", out)
	}
}
