package main

import (
	"os"
	"testing"
)

// TestOutWithoutNameFailsBeforeTheHunt pins that the -out/-name flag pair is
// validated before any scenario is evaluated. The bogus controller would fail
// the hunt's first evaluation with exit 1 and would print the objective
// header on success, so exit 2 with empty output means the search never
// started.
func TestOutWithoutNameFailsBeforeTheHunt(t *testing.T) {
	out, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatalf("temp output: %v", err)
	}
	defer out.Close()
	if code := run([]string{"-out", t.TempDir(), "-controller", "bogus"}, out); code != 2 {
		t.Errorf("hunter -out DIR without -name exited %d, want 2", code)
	}
	info, err := out.Stat()
	if err != nil {
		t.Fatalf("stat output: %v", err)
	}
	if info.Size() != 0 {
		t.Errorf("hunter printed %d bytes of results before rejecting the flags", info.Size())
	}
}
