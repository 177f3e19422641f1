package datagen

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestGenerateCtxCanceled verifies that a pre-canceled context stops
// generation before any table loads.
func TestGenerateCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := GenerateCtx(ctx, Config{Scale: 0.05, Z: 1, Seed: 1}); err != context.Canceled {
		t.Fatalf("GenerateCtx on canceled ctx: err = %v, want context.Canceled", err)
	}
}

// TestWriteTblCanceledLeavesNothing verifies the no-partial-dataset
// guarantee: cancellation mid-write removes every .tbl file already created,
// and the output directory too when WriteTbl created it.
func TestWriteTblCanceledLeavesNothing(t *testing.T) {
	db, err := Generate(Config{Scale: 0.05, Z: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dir := filepath.Join(t.TempDir(), "out")
	if err := WriteTbl(ctx, db, dir); err != context.Canceled {
		t.Fatalf("WriteTbl on canceled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("canceled WriteTbl left output directory behind (stat err = %v)", err)
	}
}

// stepCtx reports Canceled only after its Err has been consulted `after`
// times, letting tests cancel deterministically partway through a write.
type stepCtx struct {
	context.Context
	calls, after int
}

func (c *stepCtx) Err() error {
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// TestWriteTblMidWriteCancelRemovesCreatedFiles cancels after the first
// table's pre-check, so at least one .tbl file exists before the cancellation
// is observed and the cleanup path must actually delete files.
func TestWriteTblMidWriteCancelRemovesCreatedFiles(t *testing.T) {
	db, err := Generate(Config{Scale: 0.02, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir() // pre-existing: only the files should be removed
	ctx := &stepCtx{Context: context.Background(), after: 1}
	if err := WriteTbl(ctx, db, dir); err != context.Canceled {
		t.Fatalf("mid-write cancel: err = %v, want context.Canceled", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("mid-write cancel left %d files behind", len(entries))
	}
}

// TestWriteTblErrorCleansCreatedFiles verifies cleanup on a non-ctx
// failure path too: an unwritable directory must not accumulate .tbl files.
func TestWriteTblErrorCleansCreatedFiles(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("permission-based failure injection does not work as root")
	}
	db, err := Generate(Config{Scale: 0.02, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	if err := WriteTbl(context.Background(), db, dir); err == nil {
		t.Fatal("WriteTbl into read-only dir succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("failed WriteTbl left %d files behind", len(entries))
	}
}

// TestWriteTblCleanRoundTrip verifies the happy path still inverts via
// LoadTbl after the cancellation plumbing.
func TestWriteTblCleanRoundTrip(t *testing.T) {
	db, err := Generate(Config{Scale: 0.02, Z: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "tbl")
	if err := WriteTbl(context.Background(), db, dir); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTbl(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range db.Schema.TableNames() {
		want, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if got.RowCount() != want.RowCount() {
			t.Fatalf("%s: %d rows after round trip, want %d", name, got.RowCount(), want.RowCount())
		}
	}
}
