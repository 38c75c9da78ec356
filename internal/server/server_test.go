package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"inplace"
	"inplace/client"
	"inplace/internal/server/wire"
	"inplace/internal/stats"
)

// startServer launches a server on an ephemeral port and returns it
// with its address; the cleanup closes it.
func startServer(t testing.TB, cfg Config) (*Server, string) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	return s, ln.Addr().String()
}

func randBytes(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestRoundTripShapes(t *testing.T) {
	_, addr := startServer(t, Config{SpillDir: t.TempDir(), MemJobLimit: 1 << 20})
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	for _, elem := range []int{1, 2, 4, 8} {
		for _, shape := range [][2]int{{1, 1}, {5, 3}, {64, 64}, {127, 33}, {16, 1024}} {
			rows, cols := shape[0], shape[1]
			data := randBytes(rows*cols*elem, int64(rows*1000+cols*10+elem))
			want := refTransposeBytes(data, rows, cols, elem)
			if err := cl.Transpose(data, rows, cols, elem); err != nil {
				t.Fatalf("%dx%d elem %d: %v", rows, cols, elem, err)
			}
			if !bytes.Equal(data, want) {
				t.Fatalf("%dx%d elem %d: transpose mismatch", rows, cols, elem)
			}
		}
	}
}

func TestForcedSpillRoundTrip(t *testing.T) {
	srv, addr := startServer(t, Config{SpillDir: t.TempDir(), OOCBudget: 64 << 10})
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	const rows, cols, elem = 128, 256, 8
	data := randBytes(rows*cols*elem, 7)
	want := refTransposeBytes(data, rows, cols, elem)
	mode, err := cl.TransposeToken(client.NewToken(), data, rows, cols, elem, wire.FlagSpill)
	if err != nil {
		t.Fatalf("spilled transpose: %v", err)
	}
	if mode != wire.ModeSpill {
		t.Fatalf("mode = %d, want ModeSpill", mode)
	}
	if !bytes.Equal(data, want) {
		t.Fatal("spilled transpose mismatch")
	}
	if got := srv.reg.Counter("server_jobs_spilled").Load(); got != 1 {
		t.Fatalf("server_jobs_spilled = %d, want 1", got)
	}
	// The handler removes the job from the registry after flushing the
	// result, so the client can get here first; Close waits for the
	// handler to finish.
	srv.Close()
	if got := srv.SpilledJobs(); got != 0 {
		t.Fatalf("spill registry holds %d jobs after completion, want 0", got)
	}
}

func TestBadShapeAndUnknownToken(t *testing.T) {
	_, addr := startServer(t, Config{SpillDir: t.TempDir()})
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	var remote *client.RemoteError
	if _, err := cl.TransposeToken(1, make([]byte, 12), 2, 2, 3, 0); !errors.As(err, &remote) || remote.Code != wire.CodeBadShape {
		t.Fatalf("elem 3: err = %v, want RemoteError CodeBadShape", err)
	}
	// The connection survives a typed error: the next job works.
	data := randBytes(16, 3)
	want := refTransposeBytes(data, 2, 2, 4)
	if err := cl.Transpose(data, 2, 2, 4); err != nil {
		t.Fatalf("job after typed error: %v", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatal("transpose mismatch after typed error")
	}
	if err := cl.Resume(0xABCD, make([]byte, 16), 2, 2, 4); !errors.As(err, &remote) || remote.Code != wire.CodeUnknownToken {
		t.Fatalf("unknown token: err = %v, want RemoteError CodeUnknownToken", err)
	}
}

// TestCheckJob pins the daemon's guard on wire geometry and the charge
// it hands admission: every shape it refuses is errBadElem, and an
// accepted shape costs its payload plus the scratch of the one plan an
// in-memory job runs, TransposeElem's default.
func TestCheckJob(t *testing.T) {
	const maxDim = 1 << 31
	for _, c := range []struct {
		name       string
		rows, cols uint64
		elem       uint32
	}{
		{"zero rows", 0, 8, 4},
		{"zero cols", 8, 0, 4},
		{"rows past 2^31", maxDim + 1, 8, 4},
		{"cols past 2^31", 8, maxDim + 1, 4},
		{"elem 3", 8, 8, 3},
		{"elem 16", 8, 8, 16},
		{"byte count overflows int", maxDim, maxDim, 8},
	} {
		if _, err := checkJob(c.rows, c.cols, c.elem); !errors.Is(err, errBadElem) {
			t.Errorf("%s: err = %v, want errBadElem", c.name, err)
		}
	}

	for _, c := range []struct {
		rows, cols, elem int
	}{
		{8, 1024, 4}, // serve's tiny class
		{1000, 1000, 4},
		{100000, 8, 8},
		{maxDim, maxDim, 1}, // the largest shape the guard accepts
	} {
		g, err := checkJob(uint64(c.rows), uint64(c.cols), uint32(c.elem))
		if err != nil {
			t.Fatalf("%dx%d elem %d: %v", c.rows, c.cols, c.elem, err)
		}
		floor, err := inplace.ScratchBytes(c.rows, c.cols, c.elem, inplace.Options{})
		if err != nil {
			t.Fatalf("%dx%d elem %d: ScratchBytes: %v", c.rows, c.cols, c.elem, err)
		}
		if total := int64(c.rows) * int64(c.cols) * int64(c.elem); g.total != total {
			t.Errorf("%dx%d elem %d: total = %d, want %d", c.rows, c.cols, c.elem, g.total, total)
		}
		if g.floor != int64(floor) {
			t.Errorf("%dx%d elem %d: floor = %d, want ScratchBytes %d", c.rows, c.cols, c.elem, g.floor, floor)
		}
		if got := g.memCost(); got != g.total+g.floor {
			t.Errorf("%dx%d elem %d: memCost = %d, want total+floor %d", c.rows, c.cols, c.elem, got, g.total+g.floor)
		}
	}
}

func TestShedUnderPressure(t *testing.T) {
	// Budget fits exactly one job; the second must queue and shed on
	// the short deadline.
	const rows, cols, elem = 64, 64, 8
	g, err := checkJob(rows, cols, elem)
	if err != nil {
		t.Fatalf("checkJob: %v", err)
	}
	total := g.total
	_, addr := startServer(t, Config{
		MaxInFlightBytes: g.memCost(),
		MaxWait:          50 * time.Millisecond,
		MaxQueue:         4,
	})

	// Hold the budget with a job whose upload stalls.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	if err := rawHandshake(conn); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	var hdr [wire.HeaderLen]byte
	var job [wire.JobLen]byte
	wire.Job{Token: 1, Rows: rows, Cols: cols, Elem: elem}.Marshal(&job)
	if err := wire.WriteFrame(conn, &hdr, wire.TypeJob, job[:]); err != nil {
		t.Fatalf("job: %v", err)
	}
	if _, _, err := readControl(conn); err != nil {
		t.Fatalf("accept: %v", err)
	}
	// Budget is now held; a second client must shed.
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("Dial 2: %v", err)
	}
	defer cl.Close()
	var shed *client.ShedError
	if err := cl.Transpose(make([]byte, total), rows, cols, elem); !errors.As(err, &shed) {
		t.Fatalf("err = %v, want *client.ShedError", err)
	}
	if shed.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want > 0", shed.RetryAfter)
	}
}

// TestDemo64Clients is the acceptance demo as a test: 64 concurrent
// clients hammer repeated shapes, and the /stats HTTP endpoint proves
// a >90% plan-cache hit-rate delta and an in-flight peak bounded by
// the budget.
func TestDemo64Clients(t *testing.T) {
	reg := stats.NewRegistry()
	srv, addr := startServer(t, Config{
		SpillDir:         t.TempDir(),
		MaxInFlightBytes: 32 << 20,
		Registry:         reg,
	})
	before := stats.Default().Snapshot()

	const clients = 64
	const jobsPer = 6
	const rows, cols, elem = 80, 112, 4
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			cl, err := client.Dial(addr)
			if err != nil {
				errc <- err
				return
			}
			defer cl.Close()
			for j := 0; j < jobsPer; j++ {
				data := randBytes(rows*cols*elem, seed*100+int64(j))
				want := refTransposeBytes(data, rows, cols, elem)
				if err := cl.Transpose(data, rows, cols, elem); err != nil {
					errc <- err
					return
				}
				if !bytes.Equal(data, want) {
					errc <- fmt.Errorf("client %d job %d: mismatch", seed, j)
					return
				}
			}
		}(int64(i))
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Scrape the merged snapshot over HTTP, as a real operator would.
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	resp, err := hs.Client().Get(hs.URL + "/stats")
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	defer resp.Body.Close()
	var snap stats.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode /stats: %v", err)
	}

	hits := float64(snap.Counters["planner_cache_hits"] - before.Counters["planner_cache_hits"])
	misses := float64(snap.Counters["planner_cache_misses"] - before.Counters["planner_cache_misses"])
	if hits+misses == 0 {
		t.Fatal("no planner cache traffic recorded")
	}
	if rate := hits / (hits + misses); rate <= 0.9 {
		t.Fatalf("plan-cache hit rate %.3f, want > 0.9 (hits %v, misses %v)", rate, hits, misses)
	}
	infl := snap.Levels["server_inflight_bytes"]
	budget := snap.Gauges["server_inflight_budget_bytes"]
	if infl.Peak == 0 || infl.Peak > budget {
		t.Fatalf("in-flight peak %d, want in (0, %d]", infl.Peak, budget)
	}
	if got := snap.Counters["server_jobs"]; got != clients*jobsPer {
		t.Fatalf("server_jobs = %d, want %d", got, clients*jobsPer)
	}
}

// flakyStorage fails WriteAt once a shared failure budget is consumed,
// simulating a crash in the middle of an out-of-core run. Reads always
// succeed, so the journaled resume can replay.
type flakyStorage struct {
	inner      inplace.Storage
	writesLeft *atomic.Int32
}

func (f flakyStorage) ReadAt(p []byte, off int64) (int, error) {
	return f.inner.ReadAt(p, off)
}

func (f flakyStorage) WriteAt(p []byte, off int64) (int, error) {
	if f.writesLeft.Add(-1) < 0 {
		return 0, errors.New("flaky: injected backend failure")
	}
	return f.inner.WriteAt(p, off)
}

// TestSpillKillResumeAcrossRestart is the crash-safety demo: a spilled
// job's out-of-core run dies mid-flight (injected backend failure),
// the daemon is killed, and a fresh daemon over the same spill
// directory resumes the journaled run to the bit-exact result.
func TestSpillKillResumeAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	const rows, cols, elem = 256, 256, 8
	data := randBytes(rows*cols*elem, 99)
	want := refTransposeBytes(data, rows, cols, elem)
	token := client.NewToken()

	var writesLeft atomic.Int32
	writesLeft.Store(3) // let the run commit a little progress, then die
	cfg := Config{
		SpillDir:  dir,
		OOCBudget: 64 << 10,
		wrapSpill: func(s inplace.Storage) inplace.Storage {
			return flakyStorage{inner: s, writesLeft: &writesLeft}
		},
	}
	srv, addr := startServer(t, cfg)
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	upload := append([]byte(nil), data...)
	_, err = cl.TransposeToken(token, upload, rows, cols, elem, wire.FlagSpill)
	var remote *client.RemoteError
	if !errors.As(err, &remote) || remote.Code != wire.CodeInternal {
		t.Fatalf("faulted run: err = %v, want RemoteError CodeInternal", err)
	}
	cl.Close()
	if err := srv.Close(); err != nil { // the forced kill
		t.Fatalf("Close: %v", err)
	}

	// Restart over the same directory with the fault healed.
	writesLeft.Store(1 << 30)
	srv2, addr2 := startServer(t, cfg)
	if got := srv2.SpilledJobs(); got != 1 {
		t.Fatalf("restarted server adopted %d spilled jobs, want 1", got)
	}
	cl2, err := client.Dial(addr2)
	if err != nil {
		t.Fatalf("Dial 2: %v", err)
	}
	defer cl2.Close()
	got := append([]byte(nil), data...)
	if err := cl2.Resume(token, got, rows, cols, elem); err != nil {
		t.Fatalf("resume after restart: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed result does not match reference")
	}
	if got := srv2.reg.Counter("server_resumes").Load(); got != 1 {
		t.Fatalf("server_resumes = %d, want 1", got)
	}
	// As in TestForcedSpillRoundTrip: the handler removes the job after
	// flushing the result, and Close waits for it to finish.
	srv2.Close()
	if got := srv2.SpilledJobs(); got != 0 {
		t.Fatalf("spill registry holds %d jobs after resume, want 0", got)
	}
}

// TestResumeBusyToken proves single-connection token ownership: while
// one connection drives a spilled job, a second Resume for the token is
// rejected with CodeBusy.
func TestResumeBusyToken(t *testing.T) {
	_, addr := startServer(t, Config{SpillDir: t.TempDir(), OOCBudget: 64 << 10})
	const rows, cols, elem = 128, 128, 8
	data := randBytes(rows*cols*elem, 5)
	token := client.NewToken()

	// Start the job raw and stall after a partial upload so the token
	// stays owned.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	if err := rawHandshake(conn); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	var hdr [wire.HeaderLen]byte
	var job [wire.JobLen]byte
	wire.Job{Token: token, Rows: rows, Cols: cols, Elem: elem, Flags: wire.FlagSpill}.Marshal(&job)
	if err := wire.WriteFrame(conn, &hdr, wire.TypeJob, job[:]); err != nil {
		t.Fatalf("job: %v", err)
	}
	if _, _, err := readControl(conn); err != nil {
		t.Fatalf("accept: %v", err)
	}
	if err := wire.WriteFrame(conn, &hdr, wire.TypeData, data[:4096]); err != nil {
		t.Fatalf("partial data: %v", err)
	}

	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("Dial 2: %v", err)
	}
	defer cl.Close()
	var remote *client.RemoteError
	if err := cl.Resume(token, append([]byte(nil), data...), rows, cols, elem); !errors.As(err, &remote) || remote.Code != wire.CodeBusy {
		t.Fatalf("busy resume: err = %v, want RemoteError CodeBusy", err)
	}
}

// rawHandshake performs the Hello/HelloAck exchange on a bare conn.
func rawHandshake(conn net.Conn) error {
	var hdr [wire.HeaderLen]byte
	var hello [wire.HelloLen]byte
	wire.Hello{Version: wire.Version}.Marshal(&hello)
	if err := wire.WriteFrame(conn, &hdr, wire.TypeHello, hello[:]); err != nil {
		return err
	}
	_, _, err := readControl(conn)
	return err
}

// readControl reads one control frame from a bare conn.
func readControl(conn net.Conn) (wire.Type, []byte, error) {
	var hdr [wire.HeaderLen]byte
	t, n, err := wire.ReadHeader(conn, &hdr, wire.DefaultMaxData)
	if err != nil {
		return 0, nil, err
	}
	buf := make([]byte, n)
	if err := wire.ReadPayload(conn, buf); err != nil {
		return 0, nil, err
	}
	return t, buf, nil
}

// refTransposeBytes computes the expected byte image of transposing a
// row-major rows×cols matrix of elem-byte records.
func refTransposeBytes(raw []byte, rows, cols, elem int) []byte {
	out := make([]byte, len(raw))
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			copy(out[(c*rows+r)*elem:(c*rows+r+1)*elem], raw[(r*cols+c)*elem:(r*cols+c+1)*elem])
		}
	}
	return out
}
