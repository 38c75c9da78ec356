// Package server implements xposed, the transpose service daemon: a
// TCP server speaking the internal/server/wire protocol that runs
// client matrices through the process planner cache. One daemon
// multiplexes many clients over two shared resources — the planner
// cache (concurrent same-shape requests reuse one plan) and the
// admission budget (total in-flight bytes are bounded by the paper's
// exact scratch cost model). Every in-memory job runs on its own as
// soon as it is admitted and uploaded. Jobs too large for memory spill
// through the out-of-core engine with a journaled temp file and are
// resumable by token across disconnects and daemon restarts.
package server

import (
	"bufio"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"sync"
	"time"

	"inplace"
	"inplace/internal/mathutil"
	"inplace/internal/server/wire"
	"inplace/internal/stats"
)

// errBadElem covers every invalid-geometry failure on the data plane:
// non-positive dimensions, an unsupported element width, or a product
// that overflows. The wire layer reports it as CodeBadShape.
var errBadElem = errors.New("server: invalid shape or element width")

// errBadSequence reports a frame the protocol state machine cannot
// accept; the connection is closed because the stream position is no
// longer trustworthy.
var errBadSequence = errors.New("server: protocol sequence violation")

// bufPool recycles data-plane buffers. It stores *[]byte (never bare
// slices) so Put does not box a new header allocation per cycle.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0)
		return &b
	},
}

// getBuf returns a pooled buffer of length n.
func getBuf(n int) *[]byte {
	p := bufPool.Get().(*[]byte)
	if cap(*p) < n {
		*p = make([]byte, n)
	}
	*p = (*p)[:n]
	return p
}

// putBuf recycles a buffer obtained from getBuf.
func putBuf(p *[]byte) { bufPool.Put(p) }

// Config parameterizes a Server. The zero value is usable (spilling
// disabled); every limit has a production default.
type Config struct {
	// SpillDir is where jobs larger than MemJobLimit keep their
	// payload, journal and meta files. Empty disables spilling: jobs
	// that cannot run in memory are rejected with CodeTooLarge.
	SpillDir string

	// MaxInFlightBytes is the admission budget: the sum of the exact
	// per-job costs (payload + the engine's scratch for in-memory
	// jobs, the out-of-core resident budget for spilled ones) never
	// exceeds it. Default 1 GiB.
	MaxInFlightBytes int64

	// MemJobLimit is the per-job in-memory payload ceiling; larger
	// jobs spill. Default 64 MiB.
	MemJobLimit int64

	// OOCBudget is the resident scratch budget handed to the
	// out-of-core engine for spilled jobs, raised to the shape's
	// 2·max(rows,cols)·elem floor when necessary. Default 64 MiB.
	OOCBudget int64

	// MaxWait bounds how long an unadmitted job queues before it is
	// shed. Default 2s.
	MaxWait time.Duration

	// MaxQueue bounds the admission queue depth; beyond it jobs shed
	// immediately. Default 256.
	MaxQueue int

	// MaxData is the negotiated data-frame payload ceiling. Default
	// wire.DefaultMaxData.
	MaxData int

	// Registry receives the server's metrics; nil allocates a private
	// one. /stats merges it with the process-wide default registry.
	Registry *stats.Registry

	// wrapSpill, when non-nil, wraps the storage backend of every
	// spilled run. It exists for fault-injection tests: a wrapper that
	// fails after N writes simulates a mid-run crash without killing
	// the test process.
	wrapSpill func(inplace.Storage) inplace.Storage
}

// withDefaults resolves zero fields to production defaults.
func (c Config) withDefaults() Config {
	if c.MaxInFlightBytes <= 0 {
		c.MaxInFlightBytes = 1 << 30
	}
	if c.MemJobLimit <= 0 {
		c.MemJobLimit = 64 << 20
	}
	if c.OOCBudget <= 0 {
		c.OOCBudget = 64 << 20
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 2 * time.Second
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	if c.MaxData <= 0 {
		c.MaxData = wire.DefaultMaxData
	}
	if c.Registry == nil {
		c.Registry = stats.NewRegistry()
	}
	return c
}

// Server is one xposed daemon instance.
type Server struct {
	cfg    Config
	reg    *stats.Registry
	adm    *admitter
	spills *spillRegistry

	mu     sync.Mutex
	lns    map[net.Listener]struct{}
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	jobs        *stats.Counter
	jobsInMem   *stats.Counter
	jobsSpilled *stats.Counter
	resumes     *stats.Counter
	bytesIn     *stats.Counter
	bytesOut    *stats.Counter
	protoErrs   *stats.Counter
	connLvl     *stats.Level
}

// New builds a server from cfg, adopting any spilled jobs already
// present in the spill directory (the crash-recovery path).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		reg:   cfg.Registry,
		lns:   make(map[net.Listener]struct{}),
		conns: make(map[net.Conn]struct{}),
	}
	s.adm = newAdmitter(cfg.MaxInFlightBytes, cfg.MaxWait, cfg.MaxQueue, s.reg)
	if cfg.SpillDir != "" {
		sp, err := openSpillRegistry(cfg.SpillDir)
		if err != nil {
			return nil, err
		}
		s.spills = sp
	}
	s.jobs = s.reg.Counter("server_jobs")
	s.jobsInMem = s.reg.Counter("server_jobs_inmem")
	s.jobsSpilled = s.reg.Counter("server_jobs_spilled")
	s.resumes = s.reg.Counter("server_resumes")
	s.bytesIn = s.reg.Counter("server_bytes_in")
	s.bytesOut = s.reg.Counter("server_bytes_out")
	s.protoErrs = s.reg.Counter("server_proto_errors")
	s.connLvl = s.reg.Level("server_connections")
	return s, nil
}

// SpilledJobs returns how many spilled jobs the server currently
// tracks (zero when spilling is disabled).
func (s *Server) SpilledJobs() int {
	if s.spills == nil {
		return 0
	}
	return s.spills.count()
}

// Serve accepts connections on ln until ln fails or the server closes.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return net.ErrClosed
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			delete(s.lns, ln)
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handleConn(c)
	}
}

// Close stops accepting, closes every live connection and waits for
// the handlers to drain. Spilled jobs keep their files and remain
// resumable by a future server over the same spill directory.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	// Snapshot under the lock, close outside it: Close on a TLS or
	// otherwise buffered connection can block on the peer, and the
	// handler cleanup paths need s.mu to deregister themselves.
	lns := make([]net.Listener, 0, len(s.lns))
	for ln := range s.lns {
		lns = append(lns, ln)
	}
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return nil
}

// handleConn runs one session: handshake, then a loop of job
// exchanges until the peer disconnects or violates the protocol.
func (s *Server) handleConn(c net.Conn) {
	defer func() {
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		s.connLvl.Add(-1)
		s.wg.Done()
	}()
	s.connLvl.Add(1)

	br := bufio.NewReaderSize(c, 64<<10)
	bw := bufio.NewWriterSize(c, 64<<10)
	var hdr [wire.HeaderLen]byte
	var ctrl [wire.MaxControlFrame]byte

	// Handshake: exactly one Hello, answered with the session limits.
	t, n, err := wire.ReadHeader(br, &hdr, s.cfg.MaxData)
	if err != nil || t != wire.TypeHello {
		s.protoErrs.Inc()
		return
	}
	if err := wire.ReadPayload(br, ctrl[:n]); err != nil {
		s.protoErrs.Inc()
		return
	}
	var hello wire.Hello
	if err := hello.Unmarshal(ctrl[:n]); err != nil || hello.Version != wire.Version {
		s.protoErrs.Inc()
		s.writeError(bw, &hdr, wire.CodeBadSequence, 0, "unsupported hello")
		return
	}
	ack := wire.HelloAck{
		Version:  wire.Version,
		MaxData:  uint32(s.cfg.MaxData),
		MemLimit: uint64(s.cfg.MemJobLimit),
		Budget:   uint64(s.cfg.MaxInFlightBytes),
	}
	var ackBuf [wire.HelloAckLen]byte
	ack.Marshal(&ackBuf)
	if wire.WriteFrame(bw, &hdr, wire.TypeHelloAck, ackBuf[:]) != nil || bw.Flush() != nil {
		return
	}

	for {
		t, n, err := wire.ReadHeader(br, &hdr, s.cfg.MaxData)
		if err != nil {
			// io.EOF at a frame boundary is a clean goodbye; anything
			// else is a torn or hostile stream.
			if err != io.EOF {
				s.protoErrs.Inc()
			}
			return
		}
		if n > len(ctrl) && t != wire.TypeData {
			s.protoErrs.Inc()
			return
		}
		switch t {
		case wire.TypeJob:
			if err := wire.ReadPayload(br, ctrl[:n]); err != nil {
				s.protoErrs.Inc()
				return
			}
			var job wire.Job
			if err := job.Unmarshal(ctrl[:n]); err != nil {
				s.protoErrs.Inc()
				return
			}
			if err := s.serveJob(br, bw, &hdr, job); err != nil {
				s.protoErrs.Inc()
				return
			}
		case wire.TypeResume:
			if err := wire.ReadPayload(br, ctrl[:n]); err != nil {
				s.protoErrs.Inc()
				return
			}
			var rsm wire.Resume
			if err := rsm.Unmarshal(ctrl[:n]); err != nil {
				s.protoErrs.Inc()
				return
			}
			if err := s.serveResume(br, bw, &hdr, rsm); err != nil {
				s.protoErrs.Inc()
				return
			}
		default:
			s.protoErrs.Inc()
			s.writeError(bw, &hdr, wire.CodeBadSequence, 0, "unexpected frame")
			return
		}
	}
}

// jobGeom is a validated job geometry.
type jobGeom struct {
	rows, cols, elem int
	total            int64 // payload bytes
	floor            int64 // scratch of an in-memory run, inplace.ScratchBytes
}

// checkJob validates wire geometry into a jobGeom.
func checkJob(rows, cols uint64, elem uint32) (jobGeom, error) {
	const maxDim = 1 << 31
	if rows == 0 || cols == 0 || rows > maxDim || cols > maxDim {
		return jobGeom{}, errBadElem
	}
	switch elem {
	case 1, 2, 4, 8:
	default:
		return jobGeom{}, errBadElem
	}
	g := jobGeom{rows: int(rows), cols: int(cols), elem: int(elem)}
	size, ok := mathutil.CheckedMul(g.rows, g.cols)
	if !ok {
		return jobGeom{}, errBadElem
	}
	total, ok := mathutil.CheckedMul(size, g.elem)
	if !ok {
		return jobGeom{}, errBadElem
	}
	g.total = int64(total)
	// In memory the job runs through TransposeElem with default options,
	// so it is charged the scratch of that plan as it resolves, wisdom
	// included.
	floor, err := inplace.ScratchBytes(g.rows, g.cols, g.elem, inplace.Options{})
	if err != nil {
		return jobGeom{}, err
	}
	g.floor = int64(floor)
	return g, nil
}

// memCost is the admission cost of an in-memory job: its payload plus
// the engine's scratch, saturating rather than wrapping.
func (g jobGeom) memCost() int64 {
	if g.floor > math.MaxInt64-g.total {
		return math.MaxInt64
	}
	return g.total + g.floor
}

// spillCost is the admission cost of a spilled job: the out-of-core
// engine's resident budget, raised to its 2·max(rows,cols)·elem floor
// (the payload lives on disk).
func (s *Server) spillCost(g jobGeom) int64 {
	b := s.cfg.OOCBudget
	if f := 2 * int64(max(g.rows, g.cols)) * int64(g.elem); f > b {
		b = f
	}
	return b
}

// admitOrReport runs admission for cost and reports failures to the
// client as typed Error frames. ok is false when the job was rejected
// (the connection stays usable).
func (s *Server) admitOrReport(bw *bufio.Writer, hdr *[wire.HeaderLen]byte, cost int64) (release func(), ok bool, err error) {
	release, aerr := s.adm.Admit(cost)
	if aerr == nil {
		return release, true, nil
	}
	var shed *ShedError
	switch {
	case errors.As(aerr, &shed):
		return nil, false, s.writeError(bw, hdr, wire.CodeShed, shed.RetryAfter, aerr.Error())
	case errors.Is(aerr, ErrTooLarge):
		return nil, false, s.writeError(bw, hdr, wire.CodeTooLarge, 0, aerr.Error())
	default:
		return nil, false, s.writeError(bw, hdr, wire.CodeInternal, 0, aerr.Error())
	}
}

// serveJob runs one fresh job exchange. A nil return means the
// connection is still frame-aligned and usable; an error closes it.
func (s *Server) serveJob(br *bufio.Reader, bw *bufio.Writer, hdr *[wire.HeaderLen]byte, job wire.Job) error {
	s.jobs.Inc()
	g, gerr := checkJob(job.Rows, job.Cols, job.Elem)
	if gerr != nil {
		return s.writeError(bw, hdr, wire.CodeBadShape, 0, gerr.Error())
	}

	memCost := g.memCost()
	spill := job.Flags&wire.FlagSpill != 0 ||
		g.total > s.cfg.MemJobLimit ||
		memCost > s.cfg.MaxInFlightBytes
	if spill && s.spills == nil {
		return s.writeError(bw, hdr, wire.CodeTooLarge, 0, "server: spilling disabled, job too large for memory")
	}

	if !spill {
		return s.serveMemJob(br, bw, hdr, job.Token, g, memCost)
	}
	return s.serveSpillJob(br, bw, hdr, job.Token, g)
}

// serveMemJob is the in-memory data plane: admit, upload, transpose,
// stream back.
func (s *Server) serveMemJob(br *bufio.Reader, bw *bufio.Writer, hdr *[wire.HeaderLen]byte, token uint64, g jobGeom, cost int64) error {
	release, ok, werr := s.admitOrReport(bw, hdr, cost)
	if !ok {
		return werr
	}
	defer release()
	s.jobsInMem.Inc()

	if err := s.sendAccept(bw, hdr, token, wire.ModeMemory, 0); err != nil {
		return err
	}

	bufp := getBuf(int(g.total))
	defer putBuf(bufp)
	buf := (*bufp)[:g.total]
	off := int64(0)
	if err := s.recvData(br, g.total, func(p []byte) error {
		copy(buf[off:], p)
		off += int64(len(p))
		return nil
	}); err != nil {
		return err
	}

	if err := transposeMem(buf, g.rows, g.cols, g.elem); err != nil {
		code := wire.CodeInternal
		if errors.Is(err, errBadElem) {
			code = wire.CodeBadShape
		}
		return s.writeError(bw, hdr, code, 0, err.Error())
	}

	return s.sendResult(bw, hdr, token, wire.ModeMemory, wire.ResultCRC(0, buf), func(yield func([]byte) error) error {
		for off := int64(0); off < g.total; off += int64(s.cfg.MaxData) {
			end := off + int64(s.cfg.MaxData)
			if end > g.total {
				end = g.total
			}
			if err := yield(buf[off:end]); err != nil {
				return err
			}
		}
		return nil
	})
}

// serveSpillJob is the out-of-core data plane for a fresh job: the
// payload streams to a journaled temp file and the exchange is
// resumable by token from any interruption point.
func (s *Server) serveSpillJob(br *bufio.Reader, bw *bufio.Writer, hdr *[wire.HeaderLen]byte, token uint64, g jobGeom) error {
	j, ok := s.spills.create(token, g.rows, g.cols, g.elem, g.total)
	if !ok {
		return s.writeError(bw, hdr, wire.CodeBusy, 0, "server: token already in use")
	}
	defer j.releaseOwner()
	if err := s.spills.persistMeta(j); err != nil {
		s.spills.remove(token)
		return s.writeError(bw, hdr, wire.CodeInternal, 0, err.Error())
	}

	release, admitted, werr := s.admitOrReport(bw, hdr, s.spillCost(g))
	if !admitted {
		s.spills.remove(token)
		return werr
	}
	defer release()
	s.jobsSpilled.Inc()

	if err := s.sendAccept(bw, hdr, token, wire.ModeSpill, 0); err != nil {
		return err
	}
	return s.driveSpill(br, bw, hdr, j)
}

// serveResume reattaches a client to a spilled job, picking up the
// upload, the transform, or the download wherever it stopped.
func (s *Server) serveResume(br *bufio.Reader, bw *bufio.Writer, hdr *[wire.HeaderLen]byte, rsm wire.Resume) error {
	s.jobs.Inc()
	if s.spills == nil {
		return s.writeError(bw, hdr, wire.CodeUnknownToken, 0, "server: spilling disabled")
	}
	g, gerr := checkJob(rsm.Rows, rsm.Cols, rsm.Elem)
	if gerr != nil {
		return s.writeError(bw, hdr, wire.CodeBadShape, 0, gerr.Error())
	}
	j := s.spills.lookup(rsm.Token)
	if j == nil {
		return s.writeError(bw, hdr, wire.CodeUnknownToken, 0, "server: no spilled state for token")
	}
	j.mu.Lock()
	match := j.meta.Rows == g.rows && j.meta.Cols == g.cols && j.meta.Elem == g.elem
	j.mu.Unlock()
	if !match {
		return s.writeError(bw, hdr, wire.CodeBadShape, 0, "server: resume geometry does not match token")
	}
	if !j.acquire() {
		return s.writeError(bw, hdr, wire.CodeBusy, 0, "server: token owned by another connection")
	}
	defer j.releaseOwner()

	release, admitted, werr := s.admitOrReport(bw, hdr, s.spillCost(g))
	if !admitted {
		return werr
	}
	defer release()
	s.resumes.Inc()

	offset := j.receivedBytes()
	if j.state() != spillUploading {
		offset = j.total
	}
	if err := s.sendAccept(bw, hdr, rsm.Token, wire.ModeSpill, uint64(offset)); err != nil {
		return err
	}
	return s.driveSpill(br, bw, hdr, j)
}

// driveSpill advances a spilled job from its current state to
// completion: finish the upload, run (or resume) the out-of-core
// transform, then stream the result back and retire the token.
func (s *Server) driveSpill(br *bufio.Reader, bw *bufio.Writer, hdr *[wire.HeaderLen]byte, j *spillJob) error {
	token := j.meta.Token

	if j.state() == spillUploading {
		if err := s.recvSpillUpload(br, j); err != nil {
			return err
		}
		if err := s.spills.setState(j, spillReady); err != nil {
			return s.writeError(bw, hdr, wire.CodeInternal, 0, err.Error())
		}
	}

	if st := j.state(); st == spillReady || st == spillRunning {
		if err := s.runSpill(j); err != nil {
			// The journal survives: the job stays resumable.
			return s.writeError(bw, hdr, wire.CodeInternal, 0, err.Error())
		}
		if err := s.spills.setState(j, spillDone); err != nil {
			return s.writeError(bw, hdr, wire.CodeInternal, 0, err.Error())
		}
	}

	if err := s.sendSpillResult(bw, hdr, j); err != nil {
		// Disconnect mid-download: state stays done, the client can
		// Resume and re-download.
		return err
	}
	s.spills.remove(token)
	return nil
}

// recvSpillUpload streams the remaining payload bytes into the job's
// data file, starting at the contiguous received prefix.
func (s *Server) recvSpillUpload(br *bufio.Reader, j *spillJob) error {
	token := j.meta.Token
	f, err := os.OpenFile(s.spills.datPath(token), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	off := j.receivedBytes()
	return s.recvData(br, j.total-off, func(p []byte) error {
		if _, err := f.WriteAt(p, off); err != nil {
			return err
		}
		off += int64(len(p))
		j.addReceived(int64(len(p)))
		return nil
	})
}

// runSpill executes the out-of-core transform for a complete payload,
// resuming from the journal when a previous attempt got far enough to
// commit journal state.
func (s *Server) runSpill(j *spillJob) error {
	token := j.meta.Token
	resume := false
	if j.state() == spillRunning {
		if fi, err := os.Stat(s.spills.jrnPath(token)); err == nil && fi.Size() > 0 {
			resume = true
		}
	}
	if err := s.spills.setState(j, spillRunning); err != nil {
		return err
	}
	data, err := os.OpenFile(s.spills.datPath(token), os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	defer data.Close()
	jrn, err := os.OpenFile(s.spills.jrnPath(token), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	defer jrn.Close()

	var backend inplace.Storage = data
	if s.cfg.wrapSpill != nil {
		backend = s.cfg.wrapSpill(data)
	}
	_, err = inplace.TransposeFile(backend, j.meta.Rows, j.meta.Cols, j.meta.Elem, inplace.OOCOptions{
		Budget:  s.spillCost(jobGeom{rows: j.meta.Rows, cols: j.meta.Cols, elem: j.meta.Elem}),
		Journal: jrn,
		Resume:  resume,
	})
	return err
}

// sendSpillResult checksums the transposed file and streams it back.
func (s *Server) sendSpillResult(bw *bufio.Writer, hdr *[wire.HeaderLen]byte, j *spillJob) error {
	token := j.meta.Token
	f, err := os.Open(s.spills.datPath(token))
	if err != nil {
		return s.writeError(bw, hdr, wire.CodeInternal, 0, err.Error())
	}
	defer f.Close()

	chunkp := getBuf(s.cfg.MaxData)
	defer putBuf(chunkp)
	chunk := *chunkp

	var crc uint64
	for off := int64(0); off < j.total; {
		n := int64(len(chunk))
		if off+n > j.total {
			n = j.total - off
		}
		if _, err := f.ReadAt(chunk[:n], off); err != nil {
			return s.writeError(bw, hdr, wire.CodeInternal, 0, err.Error())
		}
		crc = wire.ResultCRC(crc, chunk[:n])
		off += n
	}

	return s.sendResult(bw, hdr, token, wire.ModeSpill, crc, func(yield func([]byte) error) error {
		for off := int64(0); off < j.total; {
			n := int64(len(chunk))
			if off+n > j.total {
				n = j.total - off
			}
			if _, err := f.ReadAt(chunk[:n], off); err != nil {
				return err
			}
			if err := yield(chunk[:n]); err != nil {
				return err
			}
			off += n
		}
		return nil
	})
}

// recvData reads exactly total payload bytes from Data frames, handing
// each chunk to sink. Any failure desynchronizes the stream, so the
// caller must close the connection.
func (s *Server) recvData(br *bufio.Reader, total int64, sink func([]byte) error) error {
	if total <= 0 {
		return nil
	}
	chunkp := getBuf(s.cfg.MaxData)
	defer putBuf(chunkp)
	chunk := *chunkp
	var hdr [wire.HeaderLen]byte
	remaining := total
	for remaining > 0 {
		t, n, err := wire.ReadHeader(br, &hdr, s.cfg.MaxData)
		if err != nil {
			return err
		}
		if t != wire.TypeData || n == 0 || int64(n) > remaining {
			return errBadSequence
		}
		if err := wire.ReadPayload(br, chunk[:n]); err != nil {
			return err
		}
		if err := sink(chunk[:n]); err != nil {
			return err
		}
		remaining -= int64(n)
		s.bytesIn.Add(uint64(n))
	}
	return nil
}

// sendAccept writes an Accept frame and flushes.
func (s *Server) sendAccept(bw *bufio.Writer, hdr *[wire.HeaderLen]byte, token uint64, mode uint8, offset uint64) error {
	var b [wire.AcceptLen]byte
	wire.Accept{Token: token, Mode: mode, Offset: offset}.Marshal(&b)
	if err := wire.WriteFrame(bw, hdr, wire.TypeAccept, b[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// sendResult writes the Result header, streams the payload chunks the
// stream callback yields, closes with Done and flushes.
func (s *Server) sendResult(bw *bufio.Writer, hdr *[wire.HeaderLen]byte, token uint64, mode uint8, crc uint64, stream func(yield func([]byte) error) error) error {
	var b [wire.ResultLen]byte
	wire.Result{Token: token, Mode: mode, CRC: crc}.Marshal(&b)
	if err := wire.WriteFrame(bw, hdr, wire.TypeResult, b[:]); err != nil {
		return err
	}
	err := stream(func(p []byte) error {
		if err := wire.WriteFrame(bw, hdr, wire.TypeData, p); err != nil {
			return err
		}
		s.bytesOut.Add(uint64(len(p)))
		return nil
	})
	if err != nil {
		return err
	}
	if err := wire.WriteFrame(bw, hdr, wire.TypeDone, nil); err != nil {
		return err
	}
	return bw.Flush()
}

// writeError reports a typed failure to the client and flushes. The
// connection stays frame-aligned: an Error replaces Accept or Result
// in the exchange.
func (s *Server) writeError(bw *bufio.Writer, hdr *[wire.HeaderLen]byte, code uint16, retry time.Duration, msg string) error {
	payload := wire.ErrorMsg{
		Code:             code,
		RetryAfterMillis: uint32(retry / time.Millisecond),
		Msg:              msg,
	}.AppendMarshal(nil)
	if err := wire.WriteFrame(bw, hdr, wire.TypeError, payload); err != nil {
		return err
	}
	return bw.Flush()
}
