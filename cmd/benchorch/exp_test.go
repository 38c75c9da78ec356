package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestExp(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"exp", "-scale", "huge"}, `unknown scale "huge"`},
		{[]string{"exp", "-run", "fig1,nope"}, `unknown experiment "nope"`},
		{[]string{"exp", "-bogus"}, "flag provided but not defined: -bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 with %q", c.args, code, stderr.String(), c.want)
		}
	}

	// fig1 prints its walkthrough and verdicts; fig8 also writes its
	// CSVs under -out.
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"exp", "-run", "fig1, fig8", "-scale", "tiny", "-out", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"matches the paper's right-hand matrix: true",
		"restored: true",
		"== fig1 done in",
		"[wrote " + filepath.Join(dir, "fig8a.csv") + "]",
		"== fig8 done in",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "fig8b.csv")); err != nil {
		t.Error(err)
	}
}
