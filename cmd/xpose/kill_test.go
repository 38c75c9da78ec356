package main

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// childEnv marks a re-executed test binary that runs xpose on its
// arguments instead of the tests.
const childEnv = "XPOSE_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// xposeChild returns a command that runs xpose with args in a child
// process: this test binary, re-executed.
func xposeChild(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	return cmd
}

// TestOOCKillResume kills a journaled `xpose ooc` process with SIGKILL
// at seeded random points within the time of a full run, the first at
// once, then runs `-resume -verify`, which must leave the transpose in
// the file. A kill that lands before the journal holds its header
// leaves nothing to resume: resume then fails on the unreadable header,
// the file must still hold the original bytes, and a fresh run finishes
// the job.
func TestOOCKillResume(t *testing.T) {
	const rows, cols, elem = 512, 384, 8
	dir := t.TempDir()
	data, jrn := filepath.Join(dir, "m.bin"), filepath.Join(dir, "m.jrn")
	orig := make([]byte, rows*cols*elem)
	rand.New(rand.NewSource(11)).Read(orig)
	want := transposed(orig, rows, cols, elem)
	oocArgs := func(extra ...string) []string {
		args := append([]string{"ooc"}, extra...)
		return append(args, "-rows", strconv.Itoa(rows), "-cols", strconv.Itoa(cols), "-elem", strconv.Itoa(elem),
			"-budget", "64k", "-journal", jrn, data)
	}
	reset := func() {
		t.Helper()
		if err := os.WriteFile(data, orig, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(jrn); err != nil && !errors.Is(err, os.ErrNotExist) {
			t.Fatal(err)
		}
	}
	complete := func(what string, args []string) {
		t.Helper()
		if out, err := xposeChild(args...).CombinedOutput(); err != nil {
			t.Fatalf("%s: %v\n%s", what, err, out)
		}
		if got, err := os.ReadFile(data); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: the file does not hold the transpose (%v)", what, err)
		}
	}

	reset()
	t0 := time.Now()
	complete("full run", oocArgs())
	full := time.Since(t0)

	points := 12
	if testing.Short() {
		points = 3
	}
	rng := rand.New(rand.NewSource(2014))
	var finished, resumed, headerless int
	for k := 0; k < points; k++ {
		reset()
		var delay time.Duration
		if k > 0 {
			delay = time.Duration(rng.Int63n(int64(full)))
		}
		child := xposeChild(oocArgs()...)
		if err := child.Start(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(delay)
		_ = child.Process.Kill() // fails only when the child has exited
		if child.Wait() == nil { // a killed child exits with an error
			finished++
		}

		out, err := xposeChild(oocArgs("-resume", "-verify")...).CombinedOutput()
		switch {
		case err == nil:
			resumed++
			if got, err := os.ReadFile(data); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("kill %d after %v: resume did not leave the transpose (%v)", k, delay, err)
			}
		case strings.Contains(string(out), "unreadable header"):
			headerless++
			if got, err := os.ReadFile(data); err != nil || !bytes.Equal(got, orig) {
				t.Fatalf("kill %d after %v: no journal header, but the file changed (%v)", k, delay, err)
			}
			reset()
			complete("fresh run after a header-less kill", oocArgs())
		default:
			t.Fatalf("kill %d after %v: resume: %v\n%s", k, delay, err, out)
		}
	}
	t.Logf("full run %v; of %d kills, %d landed after the run finished, %d resumed and %d came before the journal header",
		full, points, finished, resumed, headerless)
}
