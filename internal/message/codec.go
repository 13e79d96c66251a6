package message

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/lamport"
)

// The wire format is a fixed header followed by the Use-set words:
//
//	byte  0     kind
//	byte  1     req | res<<2 | acq<<5  (sub-type nibble packing)
//	byte  2     mode
//	byte  3     reserved (0)
//	bytes 4-7   from (int32, big endian)
//	bytes 8-11  to
//	bytes 12-15 ch (int32; NoChannel = -1)
//	bytes 16-23 ts.time (int64)
//	bytes 24-27 ts.node (int32)
//	bytes 28-35 seq (uint64; reliability-layer sequence number, 0 when
//	            unsequenced)
//	bytes 36-39 number of use-set words (uint32)
//	then 8 bytes per word
//
// The codec exists so the live transport (and any future socket
// transport) can ship messages as bytes; the simulation driver passes
// structs directly (its Wire option round-trips them through the codec
// to validate it against live protocol traffic).

const headerLen = 40

// seqOff and wordsOff locate the seq and use-set-length fields in the
// header (shared by Encode, Decode and Read).
const (
	seqOff   = 28
	wordsOff = 36
)

// MaxSetWords bounds the encodable Use set (1<<16 words = 4M channels),
// guarding Decode against corrupt lengths.
const MaxSetWords = 1 << 16

// Encode appends the wire encoding of m to buf and returns the extended
// slice.
func Encode(buf []byte, m Message) []byte {
	words := m.Use.Words()
	need := headerLen + 8*len(words)
	off := len(buf)
	for cap(buf)-off < need {
		buf = append(buf[:cap(buf)], 0)
	}
	buf = buf[:off+need]
	b := buf[off:]
	b[0] = byte(m.Kind)
	b[1] = byte(m.Req) | byte(m.Res)<<2 | byte(m.Acq)<<5
	b[2] = m.Mode
	b[3] = 0
	binary.BigEndian.PutUint32(b[4:], uint32(m.From))
	binary.BigEndian.PutUint32(b[8:], uint32(m.To))
	binary.BigEndian.PutUint32(b[12:], uint32(m.Ch))
	binary.BigEndian.PutUint64(b[16:], uint64(m.TS.Time))
	binary.BigEndian.PutUint32(b[24:], uint32(m.TS.Node))
	binary.BigEndian.PutUint64(b[seqOff:], m.Seq)
	binary.BigEndian.PutUint32(b[wordsOff:], uint32(len(words)))
	for i, w := range words {
		binary.BigEndian.PutUint64(b[headerLen+8*i:], w)
	}
	return buf
}

// Decode parses one message from the front of b, returning the message
// and the number of bytes consumed.
func Decode(b []byte) (Message, int, error) {
	if len(b) < headerLen {
		return Message{}, 0, fmt.Errorf("message: short header: %d bytes", len(b))
	}
	var m Message
	m.Kind = Kind(b[0])
	if int(m.Kind) >= NumKinds {
		return Message{}, 0, fmt.Errorf("message: unknown kind %d", b[0])
	}
	m.Req = ReqType(b[1] & 0x3)
	m.Res = ResType((b[1] >> 2) & 0x7)
	m.Acq = AcqType((b[1] >> 5) & 0x1)
	m.Mode = b[2]
	m.From = hexgrid.CellID(int32(binary.BigEndian.Uint32(b[4:])))
	m.To = hexgrid.CellID(int32(binary.BigEndian.Uint32(b[8:])))
	m.Ch = chanset.Channel(int32(binary.BigEndian.Uint32(b[12:])))
	m.TS = lamport.Stamp{
		Time: int64(binary.BigEndian.Uint64(b[16:])),
		Node: int32(binary.BigEndian.Uint32(b[24:])),
	}
	m.Seq = binary.BigEndian.Uint64(b[seqOff:])
	nWords := binary.BigEndian.Uint32(b[wordsOff:])
	if nWords > MaxSetWords {
		return Message{}, 0, fmt.Errorf("message: use set too large: %d words", nWords)
	}
	total := headerLen + 8*int(nWords)
	if len(b) < total {
		return Message{}, 0, fmt.Errorf("message: truncated use set: have %d bytes, need %d", len(b), total)
	}
	if nWords > 0 {
		words := make([]uint64, nWords)
		for i := range words {
			words[i] = binary.BigEndian.Uint64(b[headerLen+8*i:])
		}
		m.Use = chanset.FromWords(words)
	}
	return m, total, nil
}

// Write writes the wire encoding of m to w (the messages are
// self-delimiting, so a stream of Writes is parseable by Read).
func Write(w io.Writer, m Message) error {
	buf := Encode(nil, m)
	_, err := w.Write(buf)
	return err
}

// Read reads exactly one message from r (blocking until a full message
// arrives). io.EOF is returned unwrapped when the stream ends cleanly
// at a message boundary. It allocates a fresh frame buffer per call;
// long-lived stream consumers should use a Reader instead.
func Read(r io.Reader) (Message, error) {
	var d Reader
	d.r = r
	return d.Next()
}

// Reader decodes a stream of back-to-back messages, reusing one scratch
// frame buffer across calls so the steady-state wire path allocates
// only what the decoded message must own (its Use-set words). One
// Reader per connection; not safe for concurrent use.
type Reader struct {
	r   io.Reader
	buf []byte
}

// NewReader returns a Reader decoding the stream r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r, buf: make([]byte, headerLen, 256)}
}

// Next reads exactly one message (blocking until a full message
// arrives). io.EOF is returned unwrapped when the stream ends cleanly
// at a message boundary.
func (d *Reader) Next() (Message, error) {
	if cap(d.buf) < headerLen {
		d.buf = make([]byte, headerLen, 256)
	}
	hdr := d.buf[:headerLen]
	if _, err := io.ReadFull(d.r, hdr); err != nil {
		if err == io.ErrUnexpectedEOF {
			return Message{}, fmt.Errorf("message: truncated header: %w", err)
		}
		return Message{}, err
	}
	nWords := binary.BigEndian.Uint32(hdr[wordsOff:])
	if nWords > MaxSetWords {
		return Message{}, fmt.Errorf("message: use set too large: %d words", nWords)
	}
	total := headerLen + 8*int(nWords)
	if cap(d.buf) < total {
		grown := make([]byte, total)
		copy(grown, hdr)
		d.buf = grown
	}
	buf := d.buf[:total]
	if nWords > 0 {
		if _, err := io.ReadFull(d.r, buf[headerLen:]); err != nil {
			return Message{}, fmt.Errorf("message: truncated body: %w", err)
		}
	}
	m, _, err := Decode(buf)
	return m, err
}
