// Command xposestore manages columnar tile-store datasets: fixed-width
// records ingested row-major (AoS), stored column-major on disk via the
// per-chunk skinny transpose, and read back as full scans or
// column projections.
//
// Usage:
//
//	xposestore create -rows N -fields F -elem B [-chunk R] [-input FILE]
//	           [-budget BYTES] [-wisdom FILE] [-tune] DIR
//	xposestore scan [-lo N] [-hi N] [-out FILE] [-stats] DIR
//	xposestore project -cols 1,7,14 [-lo N] [-hi N] [-out FILE] [-stats] DIR
//	xposestore verify DIR
//	xposestore stats [-scans N] DIR
//	xposestore selftest
//
// create reads rows*fields*elem bytes of row-major records from -input
// (stdin by default) and seals the dataset; a kill at any point leaves
// the dataset absent, never torn. scan and project write raw bytes to
// -out (stdout by default). verify re-reads every column segment
// against its CRC64 frame. stats exercises repeated scans and prints
// the handle's cache and I/O counters as JSON. selftest builds a
// scratch dataset and asserts the store's three load-bearing
// properties: projections touch fewer backend bytes than scans, warm
// scans hit the block cache, and an interrupted ingest is invisible.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"inplace"
	"inplace/internal/mathutil"
)

// recordBuf allocates rows×fields×elem bytes, refusing shapes whose
// byte size overflows int.
func recordBuf(rows, fields, elem int) ([]byte, error) {
	rf, ok := mathutil.CheckedMul(rows, fields)
	if !ok {
		return nil, fmt.Errorf("xposestore: %dx%d rows overflows int", rows, fields)
	}
	n, ok := mathutil.CheckedMul(rf, elem)
	if !ok {
		return nil, fmt.Errorf("xposestore: %dx%dx%d bytes overflows int", rows, fields, elem)
	}
	return make([]byte, n), nil
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "create":
		err = runCreate(args)
	case "scan":
		err = runRead(args, false)
	case "project":
		err = runRead(args, true)
	case "verify":
		err = runVerify(args)
	case "stats":
		err = runStats(args)
	case "selftest":
		err = runSelftest()
	case "-selftest", "--selftest": // flag spelling, same entry point
		err = runSelftest()
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "xposestore:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  xposestore create -rows N -fields F -elem B [-chunk R] [-input FILE] DIR
  xposestore scan [-lo N] [-hi N] [-out FILE] [-stats] DIR
  xposestore project -cols 1,7,14 [-lo N] [-hi N] [-out FILE] [-stats] DIR
  xposestore verify DIR
  xposestore stats [-scans N] DIR
  xposestore selftest`)
	os.Exit(2)
}

// dirArg returns the single positional DIR argument of a parsed FlagSet.
func dirArg(fs *flag.FlagSet) (string, error) {
	if fs.NArg() != 1 {
		return "", errors.New("expected exactly one dataset directory argument")
	}
	return fs.Arg(0), nil
}

func runCreate(args []string) error {
	fs := flag.NewFlagSet("create", flag.ExitOnError)
	rows := fs.Int("rows", 0, "record count")
	fields := fs.Int("fields", 0, "fields per record")
	elem := fs.Int("elem", 4, "field element size in bytes")
	chunk := fs.Int("chunk", 0, "chunk height in records (0 = wisdom, then heuristic)")
	input := fs.String("input", "", "row-major AoS input file (default stdin)")
	budget := fs.String("budget", "0", "ingest scratch ceiling (bytes, or k/m/g; 0 = default)")
	wisdom := fs.String("wisdom", "", "wisdom file to load before sizing (see cmd/xposetune)")
	tuneFirst := fs.Bool("tune", false, "measure-tune chunk sizing first (with -wisdom: save the decision back)")
	fs.Parse(args)
	dir, err := dirArg(fs)
	if err != nil {
		return err
	}
	budgetBytes, err := mathutil.ParseSize(*budget)
	if err != nil {
		return err
	}

	if *wisdom != "" {
		if err := inplace.LoadWisdom(*wisdom); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	if *tuneFirst {
		res, err := inplace.TuneStore(*rows, *fields, *elem)
		if err != nil {
			return err
		}
		fmt.Println(res)
		if *wisdom != "" {
			if err := inplace.SaveWisdom(*wisdom); err != nil {
				return err
			}
		}
	}

	in := io.Reader(os.Stdin)
	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}

	d, err := inplace.CreateDataset(dir, *rows, *fields, *elem, inplace.DatasetOptions{
		ChunkRows: *chunk,
		MemBudget: budgetBytes,
	})
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Ingest(in); err != nil {
		return err
	}
	st := d.Stats()
	fmt.Printf("created %s: %d rows × %d fields (%d-byte elements), chunk height %d, %d segments (%d spilled chunks)\n",
		dir, *rows, *fields, *elem, d.ChunkRows(), st.SegmentsWritten, st.Spills)
	return nil
}

func runRead(args []string, project bool) error {
	name := "scan"
	if project {
		name = "project"
	}
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	colsArg := fs.String("cols", "", "comma-separated column indices (project only)")
	lo := fs.Int("lo", 0, "first row (inclusive)")
	hi := fs.Int("hi", 0, "last row (exclusive; 0 = all rows)")
	out := fs.String("out", "", "output file for raw bytes (default stdout)")
	statsOut := fs.Bool("stats", false, "print handle counters as JSON on stderr")
	cache := fs.String("cache", "0", "block cache capacity (bytes, or k/m/g; 0 = default)")
	fs.Parse(args)
	dir, err := dirArg(fs)
	if err != nil {
		return err
	}
	cacheBytes, err := mathutil.ParseSize(*cache)
	if err != nil {
		return err
	}

	d, err := inplace.OpenDataset(dir, inplace.DatasetOptions{CacheBytes: cacheBytes})
	if err != nil {
		return err
	}
	defer d.Close()
	if *hi == 0 {
		*hi = d.Rows()
	}

	var buf []byte
	if project {
		cols, err := parseCols(*colsArg)
		if err != nil {
			return err
		}
		buf, err = recordBuf(*hi-*lo, len(cols), d.ElemSize())
		if err != nil {
			return err
		}
		if err := d.Project(buf, cols, *lo, *hi); err != nil {
			return err
		}
	} else {
		buf, err = recordBuf(*hi-*lo, d.Fields(), d.ElemSize())
		if err != nil {
			return err
		}
		if err := d.Scan(buf, *lo, *hi); err != nil {
			return err
		}
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if _, err := w.Write(buf); err != nil {
		return err
	}
	if *statsOut {
		enc := json.NewEncoder(os.Stderr)
		enc.SetIndent("", "  ")
		if err := enc.Encode(d.Stats()); err != nil {
			return err
		}
	}
	return nil
}

func runVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	fs.Parse(args)
	dir, err := dirArg(fs)
	if err != nil {
		return err
	}
	d, err := inplace.OpenDataset(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Verify(); err != nil {
		return err
	}
	st := d.Stats()
	fmt.Printf("verified %s: %d rows × %d fields, %d bytes checked, all frames and checksums valid\n",
		dir, d.Rows(), d.Fields(), st.BytesRead)
	return nil
}

func runStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	scans := fs.Int("scans", 2, "full scans to drive through the cache before reporting")
	fs.Parse(args)
	dir, err := dirArg(fs)
	if err != nil {
		return err
	}
	d, err := inplace.OpenDataset(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	buf, err := recordBuf(d.Rows(), d.Fields(), d.ElemSize())
	if err != nil {
		return err
	}
	for i := 0; i < *scans; i++ {
		if err := d.Scan(buf, 0, d.Rows()); err != nil {
			return err
		}
	}
	report := struct {
		Rows      int `json:"rows"`
		Fields    int `json:"fields"`
		ElemSize  int `json:"elem_size"`
		ChunkRows int `json:"chunk_rows"`
		inplace.DatasetStats
	}{d.Rows(), d.Fields(), d.ElemSize(), d.ChunkRows(), d.Stats()}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// runSelftest asserts the store's load-bearing properties end to end on
// the deployment machine:
//
//  1. a 3-of-16-column projection reads strictly fewer backend bytes
//     than a full scan of the same rows (counted at the read syscalls);
//  2. repeated scans hit the block cache at a rate above 0.9;
//  3. an ingest abandoned midway leaves the dataset invisible to open
//     — absent or fully valid, never torn — and a subsequent complete
//     ingest passes the full checksum scan.
func runSelftest() error {
	const rows, fields, elem, chunk = 512, 16, 4, 64
	scratch, err := os.MkdirTemp("", "xposestore-selftest-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	aos := make([]byte, rows*fields*elem)
	for i := range aos {
		aos[i] = byte(uint32(i)*2654435761>>9 + uint32(i)*13)
	}
	build := func(dir string) (*inplace.Dataset, error) {
		d, err := inplace.CreateDataset(dir, rows, fields, elem, inplace.DatasetOptions{ChunkRows: chunk})
		if err != nil {
			return nil, err
		}
		if err := d.Ingest(bytes.NewReader(aos)); err != nil {
			d.Close()
			return nil, err
		}
		return d, nil
	}

	// Property 1: projection reads fewer backend bytes than a scan.
	// Fresh handle per measurement so cold counters compare cleanly.
	ds, err := build(filepath.Join(scratch, "proj"))
	if err != nil {
		return err
	}
	ds.Close()
	scanHandle, err := inplace.OpenDataset(filepath.Join(scratch, "proj"))
	if err != nil {
		return err
	}
	full := make([]byte, rows*fields*elem)
	if err := scanHandle.Scan(full, 0, rows); err != nil {
		return err
	}
	scanBytes := scanHandle.Stats().BytesRead
	scanHandle.Close()
	if !bytes.Equal(full, aos) {
		return errors.New("selftest: full scan mismatch")
	}

	projHandle, err := inplace.OpenDataset(filepath.Join(scratch, "proj"))
	if err != nil {
		return err
	}
	cols := []int{1, 7, 14}
	proj, err := recordBuf(rows, len(cols), elem)
	if err != nil {
		return err
	}
	if err := projHandle.Project(proj, cols, 0, rows); err != nil {
		return err
	}
	projBytes := projHandle.Stats().BytesRead
	projHandle.Close()
	for r := 0; r < rows; r++ {
		for ci, c := range cols {
			want := aos[(r*fields+c)*elem : (r*fields+c+1)*elem]
			if !bytes.Equal(proj[(r*len(cols)+ci)*elem:(r*len(cols)+ci+1)*elem], want) {
				return fmt.Errorf("selftest: projection mismatch at row %d column %d", r, c)
			}
		}
	}
	if projBytes >= scanBytes {
		return fmt.Errorf("selftest: projection of %d/%d columns read %d bytes, full scan %d — columnar layout is not paying off",
			len(cols), fields, projBytes, scanBytes)
	}

	// Property 2: warm scans hit the cache above 0.9.
	warm, err := inplace.OpenDataset(filepath.Join(scratch, "proj"))
	if err != nil {
		return err
	}
	const passes = 16
	for i := 0; i < passes; i++ {
		if err := warm.Scan(full, 0, rows); err != nil {
			return err
		}
	}
	st := warm.Stats()
	warm.Close()
	hitRate := float64(st.CacheHits) / float64(st.CacheHits+st.CacheMisses)
	if hitRate <= 0.9 {
		return fmt.Errorf("selftest: cache hit rate %.3f over %d scans, want > 0.9", hitRate, passes)
	}

	// Property 3: an ingest killed midway leaves the dataset absent.
	// A reader that stops short models the kill: segments are partially
	// written but the meta state machine never reaches sealed.
	tornDir := filepath.Join(scratch, "torn")
	torn, err := inplace.CreateDataset(tornDir, rows, fields, elem, inplace.DatasetOptions{ChunkRows: chunk})
	if err != nil {
		return err
	}
	if err := torn.Ingest(bytes.NewReader(aos[:len(aos)/2])); err == nil {
		torn.Close()
		return errors.New("selftest: truncated ingest unexpectedly succeeded")
	}
	torn.Close()
	if _, err := inplace.OpenDataset(tornDir); !errors.Is(err, inplace.ErrNotSealed) {
		return fmt.Errorf("selftest: open of killed ingest = %v, want ErrNotSealed", err)
	}
	// Completing the dataset from scratch makes it fully valid — the
	// checksum scan proves every byte, not just the metadata.
	if err := os.RemoveAll(tornDir); err != nil {
		return err
	}
	redo, err := build(tornDir)
	if err != nil {
		return err
	}
	defer redo.Close()
	if err := redo.Verify(); err != nil {
		return fmt.Errorf("selftest: checksum scan after re-ingest: %w", err)
	}

	fmt.Printf("selftest ok: %d rows × %d fields; projection %d/%d bytes vs scan, hit rate %.3f over %d scans, killed ingest invisible and re-ingest checksum-clean\n",
		rows, fields, projBytes, scanBytes, hitRate, passes)
	return nil
}

// parseCols parses a comma-separated column list.
func parseCols(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, errors.New("project requires -cols (comma-separated column indices)")
	}
	parts := strings.Split(s, ",")
	cols := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad column %q: %v", p, err)
		}
		cols = append(cols, n)
	}
	return cols, nil
}
