package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"testing"
)

// frameBytes builds one complete frame as it crosses the wire.
func frameBytes(t Type, payload []byte) []byte {
	var hdr [HeaderLen]byte
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &hdr, t, payload); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// goldenFrames pins the exact wire encoding of every control message.
// These bytes are protocol: a change here is a protocol version bump.
func goldenFrames() []struct {
	name   string
	frame  []byte
	golden string
} {
	var hello [HelloLen]byte
	Hello{Version: 1}.Marshal(&hello)
	var ack [HelloAckLen]byte
	HelloAck{Version: 1, MaxData: 1 << 20, MemLimit: 1 << 26, Budget: 1 << 30}.Marshal(&ack)
	var job [JobLen]byte
	Job{Token: 0xDEADBEEFCAFEF00D, Rows: 1000, Cols: 64, Elem: 8, Flags: FlagSpill}.Marshal(&job)
	var acc [AcceptLen]byte
	Accept{Token: 0xDEADBEEFCAFEF00D, Mode: ModeSpill, Offset: 4096}.Marshal(&acc)
	var res [ResultLen]byte
	Result{Token: 7, Mode: ModeMemory, CRC: 0x0123456789ABCDEF}.Marshal(&res)
	var rsm [ResumeLen]byte
	Resume{Token: 0xDEADBEEFCAFEF00D, Rows: 1000, Cols: 64, Elem: 8}.Marshal(&rsm)
	errPayload := ErrorMsg{Code: CodeShed, RetryAfterMillis: 250, Msg: "try later"}.AppendMarshal(nil)

	return []struct {
		name   string
		frame  []byte
		golden string
	}{
		{"hello", frameBytes(TypeHello, hello[:]),
			"0000000601" + "5850534400" + "01"},
		{"helloack", frameBytes(TypeHelloAck, ack[:]),
			"0000001602" + "0001" + "00100000" + "0000000004000000" + "0000000040000000"},
		{"job", frameBytes(TypeJob, job[:]),
			"0000002003" + "deadbeefcafef00d" + "00000000000003e8" + "0000000000000040" + "00000008" + "00000001"},
		{"accept", frameBytes(TypeAccept, acc[:]),
			"0000001104" + "deadbeefcafef00d" + "01" + "0000000000001000"},
		{"data", frameBytes(TypeData, []byte{0xAA, 0xBB, 0xCC}),
			"0000000305" + "aabbcc"},
		{"result", frameBytes(TypeResult, res[:]),
			"0000001106" + "0000000000000007" + "00" + "0123456789abcdef"},
		{"done", frameBytes(TypeDone, nil),
			"0000000007"},
		{"resume", frameBytes(TypeResume, rsm[:]),
			"0000001c08" + "deadbeefcafef00d" + "00000000000003e8" + "0000000000000040" + "00000008"},
		{"error", frameBytes(TypeError, errPayload),
			"000000110f" + "0001" + "000000fa" + "0009" + hex.EncodeToString([]byte("try later"))},
	}
}

func TestGoldenFrameEncoding(t *testing.T) {
	for _, g := range goldenFrames() {
		want, err := hex.DecodeString(g.golden)
		if err != nil {
			t.Fatalf("%s: bad golden hex: %v", g.name, err)
		}
		if !bytes.Equal(g.frame, want) {
			t.Errorf("%s frame = %x, want %x", g.name, g.frame, want)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	for _, g := range goldenFrames() {
		r := bytes.NewReader(g.frame)
		var hdr [HeaderLen]byte
		typ, n, err := ReadHeader(r, &hdr, 1<<20)
		if err != nil {
			t.Fatalf("%s: ReadHeader: %v", g.name, err)
		}
		payload := make([]byte, n)
		if err := ReadPayload(r, payload); err != nil {
			t.Fatalf("%s: ReadPayload: %v", g.name, err)
		}
		switch typ {
		case TypeHello:
			var m Hello
			if err := m.Unmarshal(payload); err != nil || m.Version != 1 {
				t.Errorf("hello decode = %+v, %v", m, err)
			}
		case TypeHelloAck:
			var m HelloAck
			if err := m.Unmarshal(payload); err != nil || m.Budget != 1<<30 || m.MaxData != 1<<20 {
				t.Errorf("helloack decode = %+v, %v", m, err)
			}
		case TypeJob:
			var m Job
			if err := m.Unmarshal(payload); err != nil || m.Rows != 1000 || m.Cols != 64 || m.Elem != 8 || m.Flags != FlagSpill {
				t.Errorf("job decode = %+v, %v", m, err)
			}
		case TypeAccept:
			var m Accept
			if err := m.Unmarshal(payload); err != nil || m.Mode != ModeSpill || m.Offset != 4096 {
				t.Errorf("accept decode = %+v, %v", m, err)
			}
		case TypeResult:
			var m Result
			if err := m.Unmarshal(payload); err != nil || m.CRC != 0x0123456789ABCDEF {
				t.Errorf("result decode = %+v, %v", m, err)
			}
		case TypeResume:
			var m Resume
			if err := m.Unmarshal(payload); err != nil || m.Token != 0xDEADBEEFCAFEF00D || m.Elem != 8 {
				t.Errorf("resume decode = %+v, %v", m, err)
			}
		case TypeError:
			var m ErrorMsg
			if err := m.Unmarshal(payload); err != nil || m.Code != CodeShed || m.RetryAfterMillis != 250 || m.Msg != "try later" {
				t.Errorf("error decode = %+v, %v", m, err)
			}
		}
	}
}

// TestTruncationMatrix cuts every golden frame at every byte boundary
// and checks the decode path fails with the typed truncation error —
// except a cut at offset 0, which is a clean EOF between frames.
func TestTruncationMatrix(t *testing.T) {
	for _, g := range goldenFrames() {
		for cut := 0; cut < len(g.frame); cut++ {
			r := bytes.NewReader(g.frame[:cut])
			var hdr [HeaderLen]byte
			typ, n, err := ReadHeader(r, &hdr, 1<<20)
			if cut == 0 {
				if err != io.EOF {
					t.Fatalf("%s cut 0: err = %v, want io.EOF", g.name, err)
				}
				continue
			}
			if cut < HeaderLen {
				if !errors.Is(err, ErrTruncated) {
					t.Fatalf("%s cut %d: header err = %v, want ErrTruncated", g.name, cut, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s cut %d: unexpected header err %v", g.name, cut, err)
			}
			payload := make([]byte, n)
			if err := ReadPayload(r, payload); !errors.Is(err, ErrTruncated) {
				t.Fatalf("%s cut %d: payload err = %v, want ErrTruncated (type %d, n %d)", g.name, cut, err, typ, n)
			}
		}
	}
}

// TestCorruptFrames exercises the malformed-input taxonomy: every
// corruption maps to exactly one typed sentinel.
func TestCorruptFrames(t *testing.T) {
	readHeader := func(frame []byte) error {
		var hdr [HeaderLen]byte
		_, _, err := ReadHeader(bytes.NewReader(frame), &hdr, 1<<20)
		return err
	}

	t.Run("unknown type", func(t *testing.T) {
		if err := readHeader(frameBytes(Type(0x63), nil)); !errors.Is(err, ErrUnknownType) {
			t.Fatalf("err = %v, want ErrUnknownType", err)
		}
	})
	t.Run("oversize control frame", func(t *testing.T) {
		var hdr [HeaderLen]byte
		PutHeader(&hdr, TypeJob, MaxControlFrame+1)
		if err := readHeader(hdr[:]); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("err = %v, want ErrFrameTooLarge", err)
		}
	})
	t.Run("oversize data frame", func(t *testing.T) {
		var hdr [HeaderLen]byte
		PutHeader(&hdr, TypeData, 1<<21)
		var h2 [HeaderLen]byte
		if _, _, err := ReadHeader(bytes.NewReader(hdr[:]), &h2, 1<<20); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("err = %v, want ErrFrameTooLarge", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		var b [HelloLen]byte
		Hello{Version: Version}.Marshal(&b)
		b[0] = 'Y'
		var m Hello
		if err := m.Unmarshal(b[:]); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("err = %v, want ErrBadMagic", err)
		}
	})
	t.Run("short control payloads", func(t *testing.T) {
		cases := []struct {
			name string
			dec  func([]byte) error
			size int
		}{
			{"hello", func(p []byte) error { var m Hello; return m.Unmarshal(p) }, HelloLen},
			{"helloack", func(p []byte) error { var m HelloAck; return m.Unmarshal(p) }, HelloAckLen},
			{"job", func(p []byte) error { var m Job; return m.Unmarshal(p) }, JobLen},
			{"accept", func(p []byte) error { var m Accept; return m.Unmarshal(p) }, AcceptLen},
			{"result", func(p []byte) error { var m Result; return m.Unmarshal(p) }, ResultLen},
			{"resume", func(p []byte) error { var m Resume; return m.Unmarshal(p) }, ResumeLen},
			{"error", func(p []byte) error { var m ErrorMsg; return m.Unmarshal(p) }, errorFixedLen},
		}
		for _, c := range cases {
			for _, n := range []int{0, 1, c.size - 1, c.size + 1} {
				if n < 0 {
					continue
				}
				if err := c.dec(make([]byte, n)); !errors.Is(err, ErrBadFrame) {
					// A zero payload of exactly c.size decodes fine; only
					// wrong sizes must fail. (The +1 case also covers the
					// error message-length mismatch.)
					if n != c.size {
						t.Fatalf("%s with %d bytes: err = %v, want ErrBadFrame", c.name, n, err)
					}
				}
			}
		}
	})
	t.Run("error message length mismatch", func(t *testing.T) {
		p := ErrorMsg{Code: CodeInternal, Msg: "boom"}.AppendMarshal(nil)
		var m ErrorMsg
		if err := m.Unmarshal(p[:len(p)-1]); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("err = %v, want ErrBadFrame", err)
		}
	})
}

func TestErrorMsgTruncatesOversizeMessage(t *testing.T) {
	long := make([]byte, MaxControlFrame*2)
	for i := range long {
		long[i] = 'x'
	}
	p := ErrorMsg{Code: CodeInternal, Msg: string(long)}.AppendMarshal(nil)
	if len(p) > MaxControlFrame {
		t.Fatalf("oversize error payload not truncated: %d bytes", len(p))
	}
	var m ErrorMsg
	if err := m.Unmarshal(p); err != nil {
		t.Fatalf("truncated-message payload does not decode: %v", err)
	}
}

// ResultCRC is CRC64-ECMA as both ends have always computed it: the
// catalogued check value of "123456789", and a chunked fold equals the
// one-shot sum.
func TestResultCRC(t *testing.T) {
	check := []byte("123456789")
	if got := ResultCRC(0, check); got != 0x995dc9bbdf1939fa {
		t.Fatalf("ResultCRC(123456789) = %#x, want 0x995dc9bbdf1939fa", got)
	}
	if got := ResultCRC(ResultCRC(ResultCRC(0, check[:2]), check[2:7]), check[7:]); got != ResultCRC(0, check) {
		t.Fatalf("chunked ResultCRC = %#x, want %#x", got, ResultCRC(0, check))
	}
}
