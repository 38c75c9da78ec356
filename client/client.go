// Package client is the Go client for the xposed transpose daemon: it
// speaks the internal/server/wire protocol over one TCP connection and
// exposes in-place transposition of byte matrices as blocking calls.
// Results are verified end-to-end with CRC64-ECMA. Failures the server
// reports without poisoning the connection come back as typed errors —
// *ShedError carries the admission controller's retry hint, and every
// other server-side code is a *RemoteError — so callers branch with
// errors.As and keep the connection.
//
// Jobs too large for the daemon's memory budget spill server-side
// through the out-of-core engine and stay resumable by token: if the
// connection drops mid-job, redial and call Resume with the same token
// and geometry, and the exchange continues from the last durable byte.
package client

import (
	"bufio"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"inplace/internal/server/wire"
)

// ShedError reports an admission-control rejection: the daemon is at
// capacity and suggests retrying after RetryAfter.
type ShedError struct {
	RetryAfter time.Duration
	Msg        string
}

// Error describes the shed.
func (e *ShedError) Error() string {
	return fmt.Sprintf("client: shed by server (retry after %v): %s", e.RetryAfter, e.Msg)
}

// RemoteError is any non-shed failure the server reported with a typed
// Error frame. Code is one of the wire.Code* values.
type RemoteError struct {
	Code uint16
	Msg  string
}

// Error describes the remote failure.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("client: server error code %d: %s", e.Code, e.Msg)
}

// ErrChecksum reports a result stream whose CRC64 did not match the
// server's Result header.
var ErrChecksum = errors.New("client: result checksum mismatch")

// ErrProtocol reports a frame the client-side state machine cannot
// accept; the connection must be discarded.
var ErrProtocol = errors.New("client: protocol violation")

// Client is one connection to an xposed daemon. It is not safe for
// concurrent use; open one Client per goroutine (the daemon multiplexes
// them server-side through the shared planner and admission budget).
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	hdr  [wire.HeaderLen]byte
	ctrl [wire.MaxControlFrame]byte
	ack  wire.HelloAck
}

// Dial connects to a daemon's data port and performs the handshake.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 64<<10),
		bw:   bufio.NewWriterSize(conn, 64<<10),
	}
	var hello [wire.HelloLen]byte
	wire.Hello{Version: wire.Version}.Marshal(&hello)
	if err := wire.WriteFrame(c.bw, &c.hdr, wire.TypeHello, hello[:]); err != nil {
		conn.Close()
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		conn.Close()
		return nil, err
	}
	t, payload, err := c.readFrame()
	if err != nil {
		conn.Close()
		return nil, err
	}
	if t != wire.TypeHelloAck {
		conn.Close()
		return nil, fmt.Errorf("%w: expected HelloAck, got type %d", ErrProtocol, t)
	}
	if err := c.ack.Unmarshal(payload); err != nil {
		conn.Close()
		return nil, err
	}
	if c.ack.Version != wire.Version {
		conn.Close()
		return nil, wire.ErrBadVersion
	}
	return c, nil
}

// Close tears down the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Limits returns the session limits the server announced: the
// data-frame ceiling, the per-job in-memory payload limit beyond which
// jobs spill, and the total admission budget.
func (c *Client) Limits() (maxData int, memLimit, budget uint64) {
	return int(c.ack.MaxData), c.ack.MemLimit, c.ack.Budget
}

// NewToken returns a fresh random job token.
func NewToken() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("client: no entropy for token: " + err.Error())
	}
	return binary.BigEndian.Uint64(b[:])
}

// Transpose sends the row-major rows×cols matrix of elem-byte elements
// in data to the daemon and overwrites data with the transpose. The
// server picks the execution mode (in-memory, coalesced, or spilled).
func (c *Client) Transpose(data []byte, rows, cols, elem int) error {
	_, err := c.TransposeToken(NewToken(), data, rows, cols, elem, 0)
	return err
}

// TransposeToken is Transpose with a caller-chosen token and explicit
// flags (wire.FlagSpill forces the out-of-core path). The returned mode
// is the server's wire.Mode* choice. On a connection failure mid-job a
// spilled job remains resumable via Resume with the same token.
func (c *Client) TransposeToken(token uint64, data []byte, rows, cols, elem int, flags uint32) (mode uint8, err error) {
	var job [wire.JobLen]byte
	wire.Job{
		Token: token,
		Rows:  uint64(rows), Cols: uint64(cols),
		Elem: uint32(elem), Flags: flags,
	}.Marshal(&job)
	if err := wire.WriteFrame(c.bw, &c.hdr, wire.TypeJob, job[:]); err != nil {
		return 0, err
	}
	if err := c.bw.Flush(); err != nil {
		return 0, err
	}
	return c.finishExchange(data)
}

// Resume reattaches to a spilled job after a disconnect (on a freshly
// dialed Client). The geometry must match the original job; data must
// be the original payload so the upload can continue from the server's
// last durable byte. On success data holds the transpose.
func (c *Client) Resume(token uint64, data []byte, rows, cols, elem int) error {
	var rsm [wire.ResumeLen]byte
	wire.Resume{
		Token: token,
		Rows:  uint64(rows), Cols: uint64(cols),
		Elem: uint32(elem),
	}.Marshal(&rsm)
	if err := wire.WriteFrame(c.bw, &c.hdr, wire.TypeResume, rsm[:]); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	_, err := c.finishExchange(data)
	return err
}

// finishExchange drives a job from the Accept/Error answer through
// upload, Result and download.
func (c *Client) finishExchange(data []byte) (mode uint8, err error) {
	t, payload, err := c.readFrame()
	if err != nil {
		return 0, err
	}
	switch t {
	case wire.TypeError:
		return 0, c.typedError(payload)
	case wire.TypeAccept:
	default:
		return 0, fmt.Errorf("%w: expected Accept, got type %d", ErrProtocol, t)
	}
	var acc wire.Accept
	if err := acc.Unmarshal(payload); err != nil {
		return 0, err
	}
	if acc.Offset > uint64(len(data)) {
		return 0, fmt.Errorf("%w: accept offset %d beyond payload %d", ErrProtocol, acc.Offset, len(data))
	}

	if err := c.upload(data[acc.Offset:]); err != nil {
		return acc.Mode, err
	}
	return acc.Mode, c.download(data)
}

// upload streams rest as Data frames within the negotiated ceiling.
func (c *Client) upload(rest []byte) error {
	chunk := int(c.ack.MaxData)
	if chunk <= 0 {
		chunk = wire.DefaultMaxData
	}
	for off := 0; off < len(rest); off += chunk {
		end := off + chunk
		if end > len(rest) {
			end = len(rest)
		}
		if err := wire.WriteFrame(c.bw, &c.hdr, wire.TypeData, rest[off:end]); err != nil {
			return err
		}
	}
	return c.bw.Flush()
}

// download reads Result then the Data stream into data, verifies the
// checksum and consumes the closing Done.
func (c *Client) download(data []byte) error {
	t, payload, err := c.readFrame()
	if err != nil {
		return err
	}
	switch t {
	case wire.TypeError:
		return c.typedError(payload)
	case wire.TypeResult:
	default:
		return fmt.Errorf("%w: expected Result, got type %d", ErrProtocol, t)
	}
	var res wire.Result
	if err := res.Unmarshal(payload); err != nil {
		return err
	}

	off := 0
	for {
		typ, n, err := wire.ReadHeader(c.br, &c.hdr, int(c.ack.MaxData))
		if err != nil {
			return err
		}
		if typ == wire.TypeDone {
			if n != 0 {
				return fmt.Errorf("%w: Done with payload", ErrProtocol)
			}
			break
		}
		if typ != wire.TypeData {
			return fmt.Errorf("%w: expected Data, got type %d", ErrProtocol, typ)
		}
		if off+n > len(data) {
			return fmt.Errorf("%w: result overruns payload (%d+%d > %d)", ErrProtocol, off, n, len(data))
		}
		if err := wire.ReadPayload(c.br, data[off:off+n]); err != nil {
			return err
		}
		off += n
	}
	if off != len(data) {
		return fmt.Errorf("%w: result short: %d of %d bytes", ErrProtocol, off, len(data))
	}
	if wire.ResultCRC(0, data) != res.CRC {
		return ErrChecksum
	}
	return nil
}

// readFrame reads one control frame into the client's scratch buffer.
func (c *Client) readFrame() (wire.Type, []byte, error) {
	t, n, err := wire.ReadHeader(c.br, &c.hdr, int(c.ack.MaxData))
	if err != nil {
		if err == io.EOF {
			return 0, nil, io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	if n > len(c.ctrl) {
		return 0, nil, fmt.Errorf("%w: control frame of %d bytes", ErrProtocol, n)
	}
	if err := wire.ReadPayload(c.br, c.ctrl[:n]); err != nil {
		return 0, nil, err
	}
	return t, c.ctrl[:n], nil
}

// typedError maps a wire Error payload onto the package's error types.
func (c *Client) typedError(payload []byte) error {
	var m wire.ErrorMsg
	if err := m.Unmarshal(payload); err != nil {
		return err
	}
	if m.Code == wire.CodeShed {
		return &ShedError{
			RetryAfter: time.Duration(m.RetryAfterMillis) * time.Millisecond,
			Msg:        m.Msg,
		}
	}
	return &RemoteError{Code: m.Code, Msg: m.Msg}
}
