package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets a test re-run this binary as chansim itself: with
// CHANSIM_RUN_MAIN set, the arguments after the binary name are chansim
// flags and main runs in place of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("CHANSIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// chansim runs main in a child process and returns its stdout, stderr
// and exit code.
func chansim(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CHANSIM_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return stdout.String(), stderr.String(), code
}

// A journal at more than one shard is refused before anything is
// written: an existing file at the -journal path keeps its contents.
func TestJournalShardsRefusalKeepsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	const old = "{\"kept\":true}\n"
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, code := chansim(t, "-shards", "7", "-journal", path, "-duration", "1000", "-warmup", "0")
	if code != 1 {
		t.Fatalf("exit code %d, want 1 (stderr %q)", code, stderr)
	}
	if !strings.Contains(stderr, "shard") {
		t.Fatalf("stderr %q does not give the one-shard reason", stderr)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != old {
		t.Fatalf("refused run changed the journal file to %q", got)
	}
}

// An accepted run replaces an existing journal file: none of the old
// bytes survive, even when the old file was longer than the new journal.
func TestJournalReplacesExistingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	stale := strings.Repeat("stale\n", 1<<18)
	if err := os.WriteFile(path, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, code := chansim(t, "-journal", path, "-duration", "1000", "-warmup", "0", "-erlang", "2")
	if code != 0 {
		t.Fatalf("exit code %d (stderr %q)", code, stderr)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || bytes.Contains(got, []byte("stale")) {
		t.Fatalf("journal has %d bytes, stale content present: %v", len(got), bytes.Contains(got, []byte("stale")))
	}
	for _, line := range strings.Split(strings.TrimSuffix(string(got), "\n"), "\n") {
		if !strings.HasPrefix(line, "{") {
			t.Fatalf("journal line %q is not a JSON object", line)
		}
	}
}
