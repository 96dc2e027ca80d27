package ws

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"testing"
	"time"
)

// discardConn is the network side of a Conn that reads a fixed byte
// stream: its bufio.Reader supplies the reads, and writes and closes go
// nowhere.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) Close() error                     { return nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// serverReading returns a server-side Conn whose peer sent stream.
func serverReading(stream []byte) *Conn {
	return newConn(discardConn{}, bufio.NewReader(bytes.NewReader(stream)), false)
}

// FuzzReadMessage feeds the input as a client's byte stream to a
// server-side Conn with its reads limited, as /ws has them, and reads
// messages until ReadMessage fails. It must never panic, and every
// message it returns is a text or binary message of at most 64 KiB.
func FuzzReadMessage(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream []byte) {
		c := serverReading(stream)
		c.LimitReads()
		for {
			op, msg, err := c.ReadMessage()
			if err != nil {
				return
			}
			if op != OpText && op != OpBinary {
				t.Fatalf("ReadMessage returned opcode %#x", op)
			}
			if len(msg) > frameChunk {
				t.Fatalf("ReadMessage returned %d bytes, over the 64 KiB read limit", len(msg))
			}
		}
	})
}

// TestClaimedLengthIsNotAllocatedUpFront sends the 14-byte header of a
// masked binary frame that claims MaxMessage bytes, then ends the
// stream: the read fails, having allocated for bytes that arrived, not
// for the bytes the header promised.
func TestClaimedLengthIsNotAllocatedUpFront(t *testing.T) {
	hdr := make([]byte, 14)
	hdr[0], hdr[1] = 0x80|OpBinary, 0x80|127
	binary.BigEndian.PutUint64(hdr[2:10], MaxMessage)
	c := serverReading(hdr)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := c.ReadMessage()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a truncated frame was read as a message")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("reading a 14-byte stream allocated %d bytes", n)
	}
}

// TestLimitedReadsRefuseFrameOverChunk sends a whole masked binary frame
// one byte over 64 KiB to a server-side Conn with its reads limited: the
// read ends the session with "ws: frame too large", having allocated
// nothing for the payload.
func TestLimitedReadsRefuseFrameOverChunk(t *testing.T) {
	const size = frameChunk + 1
	stream := make([]byte, 14+size)
	stream[0], stream[1] = 0x80|OpBinary, 0x80|127
	binary.BigEndian.PutUint64(stream[2:10], size)
	c := serverReading(stream)
	c.LimitReads()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := c.ReadMessage()
	runtime.ReadMemStats(&after)
	if err == nil || err.Error() != "ws: frame too large" {
		t.Fatalf("reading a %d-byte frame: %v, want ws: frame too large", size, err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 128<<10 {
		t.Errorf("refusing a %d-byte frame allocated %d bytes", size, n)
	}
}
