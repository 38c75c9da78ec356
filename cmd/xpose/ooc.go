package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"

	"inplace"
	"inplace/internal/mathutil"
)

// runOOC is `xpose ooc`: transpose a raw binary matrix file in place on
// disk, out of core. The file never needs to fit in memory, only the
// -budget bytes of scratch do. It must hold rows*cols row-major
// elements of the given byte width; any positive width works, since the
// engine permutes opaque fixed-size records.
//
// With -journal, progress is crash-safe: kill the process at any point
// and re-run with -resume to converge to the identical result. -verify
// re-reads the final pass against the journal's committed checksums.
func runOOC(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("xpose ooc", stderr)
	rows := fs.Int("rows", 0, "matrix rows")
	cols := fs.Int("cols", 0, "matrix columns")
	elem, workers := addElemWorkers(fs, "any positive width")
	budget := fs.String("budget", "256m", "scratch memory ceiling (bytes, or k/m/g suffix)")
	journal := fs.String("journal", "", "journal file for crash-safe progress (created if absent)")
	resume := fs.Bool("resume", false, "resume an interrupted run from -journal")
	verify := fs.Bool("verify", false, "re-read the final pass against journal checksums (needs -journal)")
	segment := fs.String("segment", "0", "segment size override (bytes, or k/m/g suffix; 0 = derived)")
	statsOut := fs.Bool("stats", false, "print run statistics as JSON on stderr")
	w := addWisdomFlags(fs, "the schedule")
	selftest := fs.Bool("selftest", false, "round-trip a scratch temp file and exit")
	if err := parse(fs, args); err != nil {
		return err
	}

	budgetBytes, err := mathutil.ParseSize(*budget)
	if err != nil {
		return err
	}
	segmentBytes, err := mathutil.ParseSize(*segment)
	if err != nil {
		return err
	}
	if *selftest {
		return oocSelftest(budgetBytes, stdout)
	}
	if fs.NArg() != 1 || *rows <= 0 || *cols <= 0 {
		return usage("xpose ooc -rows M -cols N [-elem B] [-budget BYTES] file")
	}
	want, err := byteSize(*elem, *rows, *cols)
	if err != nil {
		return err
	}
	if err := w.prepare(stdout, func() (fmt.Stringer, error) {
		return inplace.TuneOOC(*rows, *cols, *elem, budgetBytes, inplace.TuneConfig{Workers: *workers})
	}); err != nil {
		return err
	}

	path := fs.Arg(0)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	if fi, err := f.Stat(); err != nil {
		return err
	} else if fi.Size() != int64(want) {
		return fmt.Errorf("%s holds %d bytes, want %d (%dx%dx%dB)", path, fi.Size(), want, *rows, *cols, *elem)
	}

	o := inplace.OOCOptions{
		Budget:       budgetBytes,
		Workers:      *workers,
		SegmentBytes: segmentBytes,
		Resume:       *resume,
		Verify:       *verify,
	}
	if *journal != "" {
		jf, err := os.OpenFile(*journal, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return err
		}
		defer jf.Close()
		o.Journal = jf
	}

	st, err := inplace.TransposeFile(f, *rows, *cols, *elem, o)
	if *statsOut {
		_ = writeJSON(stderr, st) // diagnostics; the run's error decides the exit
	}
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "transposed %s out of core: %dx%d -> %dx%d (%d-byte elements, budget %d bytes, %d passes)\n",
		path, *rows, *cols, *cols, *rows, *elem, budgetBytes, st.Passes)
	return nil
}

// oocSelftest round-trips a deterministic random matrix through a temp
// file under the given budget and checks it bit-exactly, exercising the
// full disk path on the deployment machine.
func oocSelftest(budget int64, stdout io.Writer) error {
	const rows, cols, elem = 512, 384, 8
	f, err := os.CreateTemp("", "xpose-ooc-selftest-*")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	defer f.Close()

	rng := rand.New(rand.NewSource(1))
	in := make([]byte, rows*cols*elem)
	rng.Read(in)
	if _, err := f.WriteAt(in, 0); err != nil {
		return err
	}

	jf, err := os.CreateTemp("", "xpose-ooc-selftest-journal-*")
	if err != nil {
		return err
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
		return err
	}

	got := make([]byte, len(in))
	if _, err := f.ReadAt(got, 0); err != nil {
		return err
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			src := in[(i*cols+j)*elem : (i*cols+j+1)*elem]
			dst := got[(j*rows+i)*elem : (j*rows+i+1)*elem]
			for k := range src {
				if src[k] != dst[k] {
					return fmt.Errorf("selftest: mismatch at element (%d,%d)", i, j)
				}
			}
		}
	}
	fmt.Fprintf(stdout, "selftest ok: %dx%d (%d-byte elements) under %d-byte budget, peak resident %d, %d segments, verified\n",
		rows, cols, elem, budget, st.PeakResidentBytes, st.SegmentsTransformed)
	return nil
}
