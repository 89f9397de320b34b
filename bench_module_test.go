package degradable_test

import (
	"io/fs"
	"os/exec"
	"path/filepath"
	"testing"

	// bench/ imports fleet and this module's root links everything else it
	// imports: the import keys this test's cached result to fleet too.
	_ "degradable/internal/fleet"
)

// TestBenchModule runs the bench/ module's vet and tests from tier-1. bench/
// has its own go.mod, so `go test ./...` here stops at it, yet its
// timedDriver drives round.Engine through the Driver contract from outside
// the engine: an engine change that breaks that contract must fail
// `go test ./...`, not just the benchmark gate.
func TestBenchModule(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the bench module's own test suite")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	// go test reuses a cached pass while the test binary and the files the
	// test looked at are unchanged; walking bench/ makes an edit there rerun it.
	if err := filepath.WalkDir("bench", func(string, fs.DirEntry, error) error { return nil }); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"vet", "-C", "bench", "./..."},
		{"test", "-C", "bench", "./..."},
	} {
		out, err := exec.Command(goBin, args...).CombinedOutput()
		if err != nil {
			t.Errorf("go %v: %v\n%s", args, err, out)
		}
	}
}
