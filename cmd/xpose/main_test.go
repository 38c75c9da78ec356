package main

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFileSize(t *testing.T) {
	if got, err := byteSize(8, 512, 384); err != nil || got != 512*384*8 {
		t.Fatalf("byteSize(8, 512, 384) = %d, %v", got, err)
	}
	for _, c := range [][3]int{
		{1 << 31, 1 << 31, 4}, // wraps to 0 in int64 arithmetic
		{math.MaxInt, 2, 1},
		{1 << 40, 1 << 20, 8},
		{-3, 4, 8}, // an empty-or-inverted row range
	} {
		if got, err := byteSize(c[2], c[0], c[1]); err == nil {
			t.Errorf("byteSize(%d, %d, %d) = %d, want an error", c[2], c[0], c[1], got)
		}
	}
}

// transposed returns the row-major transpose of a rows×cols matrix of
// elem-byte elements.
func transposed(src []byte, rows, cols, elem int) []byte {
	dst := make([]byte, len(src))
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			copy(dst[(j*rows+i)*elem:(j*rows+i+1)*elem], src[(i*cols+j)*elem:(i*cols+j+1)*elem])
		}
	}
	return dst
}

// TestRun drives the bare form and every subcommand through run, in
// order, on files in one temp directory: usage errors, bad sizes and
// overflowing shapes first, then round trips whose bytes are checked.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	file := func(name string, n int) (string, []byte) {
		b := make([]byte, n)
		rng.Read(b)
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p, b
	}
	mat, matOrig := file("m.bin", 24*17*2)     // 24×17, 2-byte elements
	tens, tensOrig := file("t.bin", 2*8*8*4*8) // NHWC 2x8x8x4, 8-byte elements
	ooc, oocOrig := file("o.bin", 64*48*8)     // 64×48, 8-byte elements
	_, aos := file("aos.bin", 256*6*4)         // 256 records of 6 4-byte fields
	bytesAre := func(path string, want []byte) func(*testing.T) {
		return func(t *testing.T) {
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s does not hold the expected bytes", filepath.Base(path))
			}
		}
	}
	proj := make([]byte, 0, 90*2*4)
	for r := 10; r < 100; r++ {
		for _, c := range []int{1, 4} {
			proj = append(proj, aos[(r*6+c)*4:(r*6+c+1)*4]...)
		}
	}

	for _, c := range []struct {
		name  string
		args  string // space-separated; $D is the temp directory
		code  int
		want  string // substring of stdout or stderr
		check func(*testing.T)
	}{
		{name: "usage/none", code: 2, want: "usage: xpose -rows M -cols N"},
		{name: "usage/no cols", args: "-rows 24 $D/m.bin", code: 2, want: "usage: xpose -rows"},
		{name: "usage/dims without perm", args: "-dims 2x8x8x4 $D/t.bin", code: 2, want: "-dims and -perm go together"},
		{name: "usage/bad flag", args: "-bogus", code: 2, want: "flag provided but not defined: -bogus"},
		{name: "usage/ooc no file", args: "ooc -rows 64 -cols 48", code: 2, want: "usage: xpose ooc"},
		{name: "usage/store none", args: "store", code: 2, want: "usage: xpose store create"},
		{name: "usage/store unknown", args: "store bogus $D/ds", code: 2, want: "usage: xpose store create"},
		{name: "usage/store bad flag", args: "store scan -bogus $D/ds", code: 2, want: "flag provided but not defined: -bogus"},
		{name: "usage/tune none", args: "tune", code: 2, want: "usage: xpose tune"},
		{name: "help", args: "ooc -h", code: 0, want: "-budget"},

		{name: "bad size/ooc budget", args: "ooc -budget=-5m -rows 64 -cols 48 $D/o.bin", code: 1, want: "bad size"},
		{name: "bad size/ooc segment", args: "ooc -segment 9999999999g -rows 64 -cols 48 $D/o.bin", code: 1, want: "bad size"},
		{name: "bad size/store create", args: "store create -rows 256 -fields 6 -budget=-5m $D/ds", code: 1, want: "bad size"},
		{name: "bad size/store scan", args: "store scan -cache=-5m $D/ds", code: 1, want: "bad size"},

		// The byte-size guard refuses these before comparing the shape
		// with the file, which holds far fewer bytes.
		{name: "overflow/bare", args: "-rows 2147483648 -cols 2147483648 -elem 4 $D/m.bin", code: 1, want: "no representable byte size"},
		{name: "overflow/ooc", args: "ooc -rows 2147483648 -cols 2147483648 -elem 4 $D/o.bin", code: 1, want: "no representable byte size"},
		{name: "size mismatch/bare", args: "-rows 20 -cols 17 -elem 2 $D/m.bin", code: 1, want: "holds 816 bytes, want 680"},
		{name: "size mismatch/ooc", args: "ooc -rows 60 -cols 48 $D/o.bin", code: 1, want: "holds 24576 bytes, want 23040"},

		{name: "tune/shapes", args: "tune -shapes 64x48 -perms 2x8x8x4:0,3,1,2 -elem 8 -workers 1 -fast -o $D/w.json", code: 0, want: "decisions to"},
		{name: "tune/not rank 2", args: "tune -shapes 64x48x2 -o $D/w2.json", code: 1, want: `shape "64x48x2" is not RxC`},
		{name: "tune/bad perm", args: "tune -perms 2x8:0,0 -o $D/w2.json", code: 1, want: "perm spec"},

		{name: "bare/transpose tuned", args: "-rows 24 -cols 17 -elem 2 -workers 1 -tune -wisdom $D/w.json $D/m.bin", code: 0,
			want: "transposed", check: bytesAre(mat, transposed(matOrig, 24, 17, 2))},
		{name: "bare/transpose back", args: "-rows 17 -cols 24 -elem 2 $D/m.bin", code: 0, check: bytesAre(mat, matOrig)},
		{name: "tune/list", args: "tune -list $D/w.json", code: 0, want: "transpose 24x17/2B/w1"},
		{name: "bare/permute", args: "-dims 2x8x8x4 -perm 0,3,1,2 $D/t.bin", code: 0, want: "permuted"},
		{name: "bare/permute back", args: "-dims 2x4x8x8 -perm 0,2,3,1 $D/t.bin", code: 0, check: bytesAre(tens, tensOrig)},
		{name: "bare/order col with perm", args: "-dims 2x4x8x8 -perm 0,2,3,1 -order col $D/t.bin", code: 1, want: "does not apply"},

		{name: "ooc/transpose", args: "ooc -rows 64 -cols 48 -budget 8k -journal $D/o.jrn -verify $D/o.bin", code: 0,
			want: "out of core", check: bytesAre(ooc, transposed(oocOrig, 64, 48, 8))},
		{name: "ooc/transpose back", args: "ooc -rows 48 -cols 64 -budget 8k -stats $D/o.bin", code: 0,
			want: "PeakResidentBytes", check: bytesAre(ooc, oocOrig)},
		{name: "ooc/selftest", args: "ooc -selftest -budget 64k", code: 0, want: "selftest ok"},

		{name: "store/create", args: "store create -rows 256 -fields 6 -elem 4 -chunk 64 -input $D/aos.bin $D/ds", code: 0, want: "created"},
		{name: "store/project", args: "store project -cols 1,4 -lo 10 -hi 100 -out $D/proj.bin $D/ds", code: 0,
			check: bytesAre(filepath.Join(dir, "proj.bin"), proj)},
		{name: "store/project empty range", args: "store project -cols 1 -lo 5 -hi 5 $D/ds", code: 1, want: "row range"},
		{name: "store/verify", args: "store verify $D/ds", code: 0, want: "all frames and checksums valid"},
		{name: "store/stats", args: "store stats -scans 3 $D/ds", code: 0, want: `"rows": 256`},
		{name: "store/selftest", args: "store selftest", code: 0, want: "selftest ok"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := strings.Fields(strings.ReplaceAll(c.args, "$D", dir))
			if code := run(args, &stdout, &stderr); code != c.code {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, c.code, stdout.String(), stderr.String())
			}
			if out := stdout.String() + stderr.String(); !strings.Contains(out, c.want) {
				t.Errorf("output does not contain %q:\n%s", c.want, out)
			}
			if c.check != nil {
				c.check(t)
			}
		})
	}

	// A scan without -out writes the records to stdout.
	var stdout, stderr bytes.Buffer
	if code := run([]string{"store", "scan", filepath.Join(dir, "ds")}, &stdout, &stderr); code != 0 {
		t.Fatalf("store scan: exit %d: %s", code, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), aos) {
		t.Error("store scan did not write the ingested records")
	}
}
