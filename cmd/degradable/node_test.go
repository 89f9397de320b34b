package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// withStdin points os.Stdin at a file holding input for the duration of
// the test: `degradable node` reads its config line from stdin.
func withStdin(t *testing.T, input string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stdin")
	if err := os.WriteFile(path, []byte(input), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdin
	os.Stdin = f
	t.Cleanup(func() {
		os.Stdin = saved
		f.Close()
	})
}

// TestNodeBadConfigLine checks a malformed stdin config line surfaces as an
// error instead of a hang or a half-started node.
func TestNodeBadConfigLine(t *testing.T) {
	withStdin(t, "not json\n")
	if _, err := runSub(t, "node"); err == nil {
		t.Fatal("malformed config line accepted")
	}
}

// TestNodeBadFlag checks unknown flags are rejected with usage.
func TestNodeBadFlag(t *testing.T) {
	withStdin(t, "")
	out, err := runSub(t, "node", "-no-such-flag")
	if err == nil {
		t.Fatal("unknown flag accepted")
	}
	if !strings.Contains(out, "-listen") {
		t.Errorf("usage not printed on flag error:\n%s", out)
	}
}
