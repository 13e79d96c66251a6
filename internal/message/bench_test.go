package message

import (
	"testing"

	"repro/internal/chanset"
	"repro/internal/lamport"
)

func benchMessage() Message {
	return Message{
		Kind: Response, From: 12, To: 7, Res: ResSearch,
		Ch:  chanset.NoChannel,
		TS:  lamport.Stamp{Time: 123456, Node: 12},
		Use: chanset.SetOf(0, 5, 17, 63, 64, 100, 127),
	}
}

func BenchmarkEncode(b *testing.B) {
	m := benchMessage()
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = Encode(buf[:0], m)
	}
}

func BenchmarkDecode(b *testing.B) {
	buf := Encode(nil, benchMessage())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReaderNext measures the streaming decode path the livenet TCP
// fabric's readLoop runs per wire message (scratch frame buffer reused).
func BenchmarkReaderNext(b *testing.B) {
	frame := Encode(nil, benchMessage())
	stream := &replayReader{frame: frame}
	r := NewReader(stream)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.Next(); err != nil {
			b.Fatal(err)
		}
	}
}

// replayReader serves the same encoded frame forever.
type replayReader struct {
	frame []byte
	off   int
}

func (r *replayReader) Read(p []byte) (int, error) {
	n := copy(p, r.frame[r.off:])
	r.off = (r.off + n) % len(r.frame)
	return n, nil
}

// TestEncodeAllocFree pins the wire path's send-side allocation budget:
// encoding into a reused scratch buffer must not allocate at all — the
// property the livenet TCP writer goroutines rely on.
func TestEncodeAllocFree(t *testing.T) {
	m := benchMessage()
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(200, func() { buf = Encode(buf[:0], m) }); n != 0 {
		t.Fatalf("Encode into scratch allocates %.1f objects/message, want 0", n)
	}
}

// TestReaderAllocBudget pins the receive side: a Reader decoding a
// steady stream may allocate only what the decoded message must own —
// its Use-set words (1 allocation), nothing for the frame itself.
func TestReaderAllocBudget(t *testing.T) {
	frame := Encode(nil, benchMessage())
	r := NewReader(&replayReader{frame: frame})
	r.Next() // warm the scratch buffer
	if n := testing.AllocsPerRun(200, func() {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Fatalf("Reader.Next allocates %.1f objects/message, want <= 1 (the Use-set words)", n)
	}
	// A message with no Use set must decode with zero allocations.
	frame2 := Encode(nil, Message{Kind: Release, From: 1, To: 2, Ch: 7})
	r2 := NewReader(&replayReader{frame: frame2})
	r2.Next()
	if n := testing.AllocsPerRun(200, func() {
		if _, err := r2.Next(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Reader.Next allocates %.1f objects for a set-free message, want 0", n)
	}
}
