// Package wire defines the length-prefixed binary protocol the xposed
// daemon speaks on its TCP data port, shared by the server
// (internal/server) and the client package (inplace/client).
//
// Every frame is a 5-byte header — payload length as a big-endian
// uint32 followed by a one-byte message type — and then exactly that
// many payload bytes. Control messages have fixed payload layouts
// (big-endian throughout); TypeData frames carry raw matrix bytes and
// are the only frames allowed to approach the negotiated size limit.
// The framing is deliberately stateless: any frame can be decoded with
// the 5 header bytes and a size bound, so a torn connection fails with
// ErrTruncated rather than a desynchronized stream.
//
// A session is: client sends Hello, server answers HelloAck (with its
// negotiated data-frame ceiling and admission limits), then any number
// of job exchanges. A job exchange is Job (or Resume) → Accept or
// Error → Data* upload → Result → Data* download → Done. Error frames
// may replace Accept (admission shed, invalid shape) and abort the
// exchange without poisoning the connection.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
)

// Magic opens every Hello payload: "XPSD".
const Magic uint32 = 0x58505344

// Version is the protocol version this package speaks. Hello carries
// the client's version; the server rejects mismatches with ErrBadVersion
// rather than guessing at frame layouts.
const Version uint16 = 1

// HeaderLen is the fixed frame-header size: uint32 payload length plus
// one type byte.
const HeaderLen = 5

// MaxControlFrame bounds every non-Data payload. Control messages are
// tens of bytes; anything larger is a corrupt or hostile stream.
const MaxControlFrame = 1 << 12

// DefaultMaxData is the data-frame payload ceiling a server announces
// when its config does not override it.
const DefaultMaxData = 1 << 20

// Type identifies a frame.
type Type uint8

// Frame types. The values are wire format; never renumber.
const (
	TypeHello    Type = 1  // client → server session open
	TypeHelloAck Type = 2  // server → client limits
	TypeJob      Type = 3  // client → server job header
	TypeAccept   Type = 4  // server → client admission grant
	TypeData     Type = 5  // either direction, raw matrix bytes
	TypeResult   Type = 6  // server → client job outcome header
	TypeDone     Type = 7  // server → client end of result stream
	TypeResume   Type = 8  // client → server reattach to a spilled job
	TypeError    Type = 15 // server → client typed failure
)

// Job execution modes, carried in Accept and Result.
const (
	// ModeMemory: the job runs through the in-memory planner cache
	// (possibly coalesced into a batch).
	ModeMemory uint8 = 0
	// ModeSpill: the job spills through the out-of-core engine with a
	// journaled temp file; it is resumable by token after a disconnect.
	ModeSpill uint8 = 1
)

// Job flags.
const (
	// FlagSpill forces the out-of-core path regardless of size.
	FlagSpill uint32 = 1 << 0
)

// Error codes carried by TypeError frames.
const (
	// CodeShed: admission control timed out or overflowed its queue;
	// RetryAfterMillis says when to try again. The connection stays
	// usable.
	CodeShed uint16 = 1
	// CodeTooLarge: the job cannot fit the server's admission budget at
	// all; retrying will not help.
	CodeTooLarge uint16 = 2
	// CodeBadShape: rows/cols/elem are invalid (non-positive, product
	// overflow, or an unsupported element width).
	CodeBadShape uint16 = 3
	// CodeUnknownToken: Resume named a token the server has no spilled
	// state for.
	CodeUnknownToken uint16 = 4
	// CodeBusy: the token's spilled state is owned by another live
	// connection.
	CodeBusy uint16 = 5
	// CodeBadSequence: a frame arrived that the protocol state machine
	// cannot accept; the server closes the connection.
	CodeBadSequence uint16 = 6
	// CodeInternal: the job failed server-side (I/O error, engine
	// failure). Spilled jobs keep their journal and remain resumable.
	CodeInternal uint16 = 7
)

// Typed framing failures. Decoders wrap exactly one of these, so both
// ends branch with errors.Is.
var (
	// ErrTruncated: the stream ended inside a frame header or payload.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrFrameTooLarge: a header announced a payload beyond the bound
	// for its type.
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	// ErrUnknownType: a header carried a type this version does not know.
	ErrUnknownType = errors.New("wire: unknown frame type")
	// ErrBadFrame: a control payload has the wrong length or contents
	// for its type.
	ErrBadFrame = errors.New("wire: malformed frame payload")
	// ErrBadMagic: a Hello payload did not open with Magic.
	ErrBadMagic = errors.New("wire: bad hello magic")
	// ErrBadVersion: the peer speaks an incompatible protocol version.
	ErrBadVersion = errors.New("wire: protocol version mismatch")
)

// Cold-path error constructors, keeping fmt off the framing hot path.
func truncatedErr(cause error) error {
	return fmt.Errorf("%w: %v", ErrTruncated, cause)
}

func tooLargeErr(t Type, n, limit int) error {
	return fmt.Errorf("%w: type %d payload %d > %d", ErrFrameTooLarge, t, n, limit)
}

func unknownTypeErr(t Type) error {
	return fmt.Errorf("%w: %d", ErrUnknownType, t)
}

func badFrameErr(t Type, got, want int) error {
	return fmt.Errorf("%w: type %d payload %d bytes, want %d", ErrBadFrame, t, got, want)
}

// PutHeader encodes a frame header for a payload of n bytes.
//
//xpose:hotpath
func PutHeader(b *[HeaderLen]byte, t Type, n int) {
	binary.BigEndian.PutUint32(b[:4], uint32(n))
	b[4] = byte(t)
}

// ParseHeader decodes a frame header.
//
//xpose:hotpath
func ParseHeader(b *[HeaderLen]byte) (Type, int) {
	return Type(b[4]), int(binary.BigEndian.Uint32(b[:4]))
}

// maxPayload returns the size bound for a frame type. Data frames get
// the caller's negotiated ceiling; control frames are bounded tightly.
func maxPayload(t Type, maxData int) (int, error) {
	switch t {
	case TypeData:
		if maxData < MaxControlFrame {
			maxData = MaxControlFrame
		}
		return maxData, nil
	case TypeHello, TypeHelloAck, TypeJob, TypeAccept, TypeResult, TypeDone, TypeResume, TypeError:
		return MaxControlFrame, nil
	default:
		return 0, unknownTypeErr(t)
	}
}

// ReadHeader reads and validates one frame header. A clean EOF on the
// first header byte returns io.EOF (the peer closed between frames);
// EOF anywhere else is ErrTruncated. The announced length is checked
// against the type's bound (maxData for Data frames) before any
// payload is read, so a hostile length cannot force an allocation.
func ReadHeader(r io.Reader, hdr *[HeaderLen]byte, maxData int) (Type, int, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, 0, io.EOF
		}
		return 0, 0, truncatedErr(err)
	}
	t, n := ParseHeader(hdr)
	limit, err := maxPayload(t, maxData)
	if err != nil {
		return 0, 0, err
	}
	if n > limit {
		return 0, 0, tooLargeErr(t, n, limit)
	}
	return t, n, nil
}

// ReadPayload fills buf with a frame payload announced by ReadHeader.
func ReadPayload(r io.Reader, buf []byte) error {
	if _, err := io.ReadFull(r, buf); err != nil {
		return truncatedErr(err)
	}
	return nil
}

// WriteFrame writes one complete frame.
func WriteFrame(w io.Writer, hdr *[HeaderLen]byte, t Type, payload []byte) error {
	PutHeader(hdr, t, len(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// --- Control message layouts ---

// HelloLen is the Hello payload size: magic u32, version u16.
const HelloLen = 6

// Hello opens a session.
type Hello struct {
	Version uint16
}

// Marshal encodes into b.
func (m Hello) Marshal(b *[HelloLen]byte) {
	binary.BigEndian.PutUint32(b[0:4], Magic)
	binary.BigEndian.PutUint16(b[4:6], m.Version)
}

// Unmarshal decodes from p, validating length and magic.
func (m *Hello) Unmarshal(p []byte) error {
	if len(p) != HelloLen {
		return badFrameErr(TypeHello, len(p), HelloLen)
	}
	if binary.BigEndian.Uint32(p[0:4]) != Magic {
		return ErrBadMagic
	}
	m.Version = binary.BigEndian.Uint16(p[4:6])
	return nil
}

// HelloAckLen is the HelloAck payload size: version u16, maxData u32,
// memLimit u64, budget u64.
const HelloAckLen = 22

// HelloAck answers a Hello with the server's negotiated limits.
type HelloAck struct {
	Version  uint16
	MaxData  uint32 // data-frame payload ceiling for this session
	MemLimit uint64 // per-job in-memory ceiling; larger jobs spill
	Budget   uint64 // total in-flight admission budget in bytes
}

// Marshal encodes into b.
func (m HelloAck) Marshal(b *[HelloAckLen]byte) {
	binary.BigEndian.PutUint16(b[0:2], m.Version)
	binary.BigEndian.PutUint32(b[2:6], m.MaxData)
	binary.BigEndian.PutUint64(b[6:14], m.MemLimit)
	binary.BigEndian.PutUint64(b[14:22], m.Budget)
}

// Unmarshal decodes from p.
func (m *HelloAck) Unmarshal(p []byte) error {
	if len(p) != HelloAckLen {
		return badFrameErr(TypeHelloAck, len(p), HelloAckLen)
	}
	m.Version = binary.BigEndian.Uint16(p[0:2])
	m.MaxData = binary.BigEndian.Uint32(p[2:6])
	m.MemLimit = binary.BigEndian.Uint64(p[6:14])
	m.Budget = binary.BigEndian.Uint64(p[14:22])
	return nil
}

// JobLen is the Job payload size: token u64, rows u64, cols u64,
// elem u32, flags u32.
const JobLen = 32

// Job announces one transposition: a row-major Rows×Cols matrix of
// Elem-byte elements, Rows*Cols*Elem payload bytes to follow on accept.
type Job struct {
	Token      uint64
	Rows, Cols uint64
	Elem       uint32
	Flags      uint32
}

// Marshal encodes into b.
func (m Job) Marshal(b *[JobLen]byte) {
	binary.BigEndian.PutUint64(b[0:8], m.Token)
	binary.BigEndian.PutUint64(b[8:16], m.Rows)
	binary.BigEndian.PutUint64(b[16:24], m.Cols)
	binary.BigEndian.PutUint32(b[24:28], m.Elem)
	binary.BigEndian.PutUint32(b[28:32], m.Flags)
}

// Unmarshal decodes from p.
func (m *Job) Unmarshal(p []byte) error {
	if len(p) != JobLen {
		return badFrameErr(TypeJob, len(p), JobLen)
	}
	m.Token = binary.BigEndian.Uint64(p[0:8])
	m.Rows = binary.BigEndian.Uint64(p[8:16])
	m.Cols = binary.BigEndian.Uint64(p[16:24])
	m.Elem = binary.BigEndian.Uint32(p[24:28])
	m.Flags = binary.BigEndian.Uint32(p[28:32])
	return nil
}

// ResumeLen is the Resume payload size: token u64, rows u64, cols u64,
// elem u32.
const ResumeLen = 28

// Resume reattaches to a spilled job after a disconnect. The geometry
// is repeated so the server can verify the token refers to the same
// job the client thinks it does.
type Resume struct {
	Token      uint64
	Rows, Cols uint64
	Elem       uint32
}

// Marshal encodes into b.
func (m Resume) Marshal(b *[ResumeLen]byte) {
	binary.BigEndian.PutUint64(b[0:8], m.Token)
	binary.BigEndian.PutUint64(b[8:16], m.Rows)
	binary.BigEndian.PutUint64(b[16:24], m.Cols)
	binary.BigEndian.PutUint32(b[24:28], m.Elem)
}

// Unmarshal decodes from p.
func (m *Resume) Unmarshal(p []byte) error {
	if len(p) != ResumeLen {
		return badFrameErr(TypeResume, len(p), ResumeLen)
	}
	m.Token = binary.BigEndian.Uint64(p[0:8])
	m.Rows = binary.BigEndian.Uint64(p[8:16])
	m.Cols = binary.BigEndian.Uint64(p[16:24])
	m.Elem = binary.BigEndian.Uint32(p[24:28])
	return nil
}

// AcceptLen is the Accept payload size: token u64, mode u8, offset u64.
const AcceptLen = 17

// Accept grants admission. Offset is how many payload bytes the server
// already holds durably (always 0 for a fresh job; the upload resume
// point after a Resume): the client starts its Data stream there.
type Accept struct {
	Token  uint64
	Mode   uint8
	Offset uint64
}

// Marshal encodes into b.
func (m Accept) Marshal(b *[AcceptLen]byte) {
	binary.BigEndian.PutUint64(b[0:8], m.Token)
	b[8] = m.Mode
	binary.BigEndian.PutUint64(b[9:17], m.Offset)
}

// Unmarshal decodes from p.
func (m *Accept) Unmarshal(p []byte) error {
	if len(p) != AcceptLen {
		return badFrameErr(TypeAccept, len(p), AcceptLen)
	}
	m.Token = binary.BigEndian.Uint64(p[0:8])
	m.Mode = p[8]
	m.Offset = binary.BigEndian.Uint64(p[9:17])
	return nil
}

// ResultLen is the Result payload size: token u64, mode u8, crc u64.
const ResultLen = 17

// Result announces a completed job; CRC is the CRC64-ECMA of the
// transposed payload about to stream back in Data frames (see
// ResultCRC).
type Result struct {
	Token uint64
	Mode  uint8
	CRC   uint64
}

// crcTable is the CRC64-ECMA table of the Result checksum.
var crcTable = crc64.MakeTable(crc64.ECMA)

// ResultCRC extends crc, the Result checksum of the payload bytes before
// p, over p. A whole payload's checksum is ResultCRC(0, payload); a
// payload read in chunks folds them in order.
func ResultCRC(crc uint64, p []byte) uint64 { return crc64.Update(crc, crcTable, p) }

// Marshal encodes into b.
func (m Result) Marshal(b *[ResultLen]byte) {
	binary.BigEndian.PutUint64(b[0:8], m.Token)
	b[8] = m.Mode
	binary.BigEndian.PutUint64(b[9:17], m.CRC)
}

// Unmarshal decodes from p.
func (m *Result) Unmarshal(p []byte) error {
	if len(p) != ResultLen {
		return badFrameErr(TypeResult, len(p), ResultLen)
	}
	m.Token = binary.BigEndian.Uint64(p[0:8])
	m.Mode = p[8]
	m.CRC = binary.BigEndian.Uint64(p[9:17])
	return nil
}

// errorFixedLen is the fixed prefix of an Error payload: code u16,
// retryAfterMillis u32, message length u16.
const errorFixedLen = 8

// ErrorMsg is a typed failure. RetryAfterMillis is meaningful only for
// CodeShed: the admission controller's suggested backoff.
type ErrorMsg struct {
	Code             uint16
	RetryAfterMillis uint32
	Msg              string
}

// AppendMarshal appends the encoded payload to b and returns it.
func (m ErrorMsg) AppendMarshal(b []byte) []byte {
	if len(m.Msg) > MaxControlFrame-errorFixedLen {
		m.Msg = m.Msg[:MaxControlFrame-errorFixedLen]
	}
	var fix [errorFixedLen]byte
	binary.BigEndian.PutUint16(fix[0:2], m.Code)
	binary.BigEndian.PutUint32(fix[2:6], m.RetryAfterMillis)
	binary.BigEndian.PutUint16(fix[6:8], uint16(len(m.Msg)))
	b = append(b, fix[:]...)
	return append(b, m.Msg...)
}

// Unmarshal decodes from p.
func (m *ErrorMsg) Unmarshal(p []byte) error {
	if len(p) < errorFixedLen {
		return badFrameErr(TypeError, len(p), errorFixedLen)
	}
	m.Code = binary.BigEndian.Uint16(p[0:2])
	m.RetryAfterMillis = binary.BigEndian.Uint32(p[2:6])
	n := int(binary.BigEndian.Uint16(p[6:8]))
	if len(p) != errorFixedLen+n {
		return badFrameErr(TypeError, len(p), errorFixedLen+n)
	}
	m.Msg = string(p[errorFixedLen:])
	return nil
}
