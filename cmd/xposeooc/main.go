// Command xposeooc transposes a raw binary matrix file in place on
// disk, out of core: the file never needs to fit in memory, only the
// -budget bytes of scratch do.
//
// Usage:
//
//	xposeooc -rows M -cols N [-elem 8] [-budget BYTES] [-journal PATH]
//	         [-resume] [-verify] [-workers N] [-stats] file
//	xposeooc -selftest [-budget BYTES]
//
// The file must hold rows*cols row-major elements of the given byte
// width; it is rewritten in place with the transposed (cols*rows)
// layout. Any positive element size works: the engine permutes opaque
// fixed-size records.
//
// With -journal, progress is crash-safe: kill the process at any point
// and re-run with -resume to converge to the identical result. -verify
// re-reads the final pass against the journal's committed checksums.
// -budget accepts plain bytes or k/m/g suffixes (powers of 1024).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"inplace"
	"inplace/internal/mathutil"
)

func main() {
	rows := flag.Int("rows", 0, "matrix rows")
	cols := flag.Int("cols", 0, "matrix columns")
	elem := flag.Int("elem", 8, "element size in bytes (any positive width)")
	budget := flag.String("budget", "256m", "scratch memory ceiling (bytes, or k/m/g suffix)")
	journal := flag.String("journal", "", "journal file for crash-safe progress (created if absent)")
	resume := flag.Bool("resume", false, "resume an interrupted run from -journal")
	verify := flag.Bool("verify", false, "re-read the final pass against journal checksums (needs -journal)")
	workers := flag.Int("workers", 0, "transform workers per segment (0 = wisdom, then GOMAXPROCS)")
	segment := flag.String("segment", "0", "segment size override (bytes, or k/m/g suffix; 0 = derived)")
	statsOut := flag.Bool("stats", false, "print run statistics as JSON on stderr")
	wisdom := flag.String("wisdom", "", "wisdom file to load before planning (see cmd/xposetune)")
	tuneFirst := flag.Bool("tune", false, "measure-tune the schedule first (with -wisdom: save the decision back)")
	selftest := flag.Bool("selftest", false, "round-trip a scratch temp file and exit")
	flag.Parse()

	budgetBytes, err := parseSize(*budget)
	if err != nil {
		fatal(err)
	}
	segmentBytes, err := parseSize(*segment)
	if err != nil {
		fatal(err)
	}

	if *selftest {
		runSelftest(budgetBytes)
		return
	}
	if flag.NArg() != 1 || *rows <= 0 || *cols <= 0 {
		fmt.Fprintln(os.Stderr, "usage: xposeooc -rows M -cols N [-elem B] [-budget BYTES] file")
		os.Exit(2)
	}

	if *wisdom != "" {
		if err := inplace.LoadWisdom(*wisdom); err != nil && !os.IsNotExist(err) {
			fatal(err)
		}
	}
	if *tuneFirst {
		res, err := inplace.TuneOOC(*rows, *cols, *elem, budgetBytes, inplace.TuneConfig{Workers: *workers})
		if err != nil {
			fatal(err)
		}
		fmt.Println(res)
		if *wisdom != "" {
			if err := inplace.SaveWisdom(*wisdom); err != nil {
				fatal(err)
			}
		}
	}

	path := flag.Arg(0)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	want, err := fileSize(*rows, *cols, *elem)
	if err != nil {
		fatal(err)
	}
	if fi, err := f.Stat(); err != nil {
		fatal(err)
	} else if fi.Size() != want {
		fatal(fmt.Errorf("%s holds %d bytes, want %d (%dx%dx%dB)", path, fi.Size(), want, *rows, *cols, *elem))
	}

	o := inplace.OOCOptions{
		Budget:       budgetBytes,
		Workers:      *workers,
		SegmentBytes: segmentBytes,
		Resume:       *resume,
		Verify:       *verify,
	}
	if *journal != "" {
		jflags := os.O_RDWR | os.O_CREATE
		jf, err := os.OpenFile(*journal, jflags, 0o644)
		if err != nil {
			fatal(err)
		}
		defer jf.Close()
		o.Journal = jf
	}

	st, err := inplace.TransposeFile(f, *rows, *cols, *elem, o)
	if *statsOut {
		enc := json.NewEncoder(os.Stderr)
		enc.SetIndent("", "  ")
		_ = enc.Encode(st)
	}
	if err != nil {
		fatal(err)
	}
	if err := f.Sync(); err != nil {
		fatal(err)
	}
	fmt.Printf("transposed %s out of core: %dx%d -> %dx%d (%d-byte elements, budget %d bytes, %d passes)\n",
		path, *rows, *cols, *cols, *rows, *elem, budgetBytes, st.Passes)
}

// runSelftest round-trips a deterministic random matrix through a temp
// file under the given budget and checks it bit-exactly, exercising the
// full disk path on the deployment machine.
func runSelftest(budget int64) {
	const rows, cols, elem = 512, 384, 8
	f, err := os.CreateTemp("", "xposeooc-selftest-*")
	if err != nil {
		fatal(err)
	}
	defer os.Remove(f.Name())
	defer f.Close()

	rng := rand.New(rand.NewSource(1))
	in := make([]byte, rows*cols*elem)
	rng.Read(in)
	if _, err := f.WriteAt(in, 0); err != nil {
		fatal(err)
	}

	jf, err := os.CreateTemp("", "xposeooc-selftest-journal-*")
	if err != nil {
		fatal(err)
	}
	defer os.Remove(jf.Name())
	defer jf.Close()

	// Cap the budget so the run is genuinely out of core.
	if max := int64(len(in) / 4); budget > max {
		budget = max
	}
	st, err := inplace.TransposeFile(f, rows, cols, elem, inplace.OOCOptions{
		Budget: budget, Journal: jf, Verify: true,
	})
	if err != nil {
		fatal(err)
	}

	got := make([]byte, len(in))
	if _, err := f.ReadAt(got, 0); err != nil {
		fatal(err)
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			src := in[(i*cols+j)*elem : (i*cols+j+1)*elem]
			dst := got[(j*rows+i)*elem : (j*rows+i+1)*elem]
			for k := range src {
				if src[k] != dst[k] {
					fatal(fmt.Errorf("selftest: mismatch at element (%d,%d)", i, j))
				}
			}
		}
	}
	fmt.Printf("selftest ok: %dx%d (%d-byte elements) under %d-byte budget, peak resident %d, %d segments, verified\n",
		rows, cols, elem, budget, st.PeakResidentBytes, st.SegmentsTransformed)
}

// parseSize parses a byte size with optional k/m/g suffix, rejecting
// negative sizes and sizes that overflow int64.
func parseSize(spec string) (int64, error) {
	s := strings.ToLower(strings.TrimSpace(spec))
	mul := int64(1)
	switch {
	case strings.HasSuffix(s, "k"):
		mul, s = 1<<10, strings.TrimSuffix(s, "k")
	case strings.HasSuffix(s, "m"):
		mul, s = 1<<20, strings.TrimSuffix(s, "m")
	case strings.HasSuffix(s, "g"):
		mul, s = 1<<30, strings.TrimSuffix(s, "g")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q: %v", spec, err)
	}
	if n < 0 || n > math.MaxInt64/mul {
		return 0, fmt.Errorf("bad size %q: want 0 to %d bytes", spec, int64(math.MaxInt64))
	}
	return n * mul, nil
}

// fileSize returns the byte size of a rows×cols matrix of elem-byte
// elements, or an error when the product overflows int, as the engine
// requires of it.
func fileSize(rows, cols, elem int) (int64, error) {
	n, ok := mathutil.CheckedMul(rows, cols)
	if ok {
		n, ok = mathutil.CheckedMul(n, elem)
	}
	if !ok {
		return 0, fmt.Errorf("%dx%d matrix of %d-byte elements has no representable size", rows, cols, elem)
	}
	return int64(n), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xposeooc:", err)
	os.Exit(1)
}
