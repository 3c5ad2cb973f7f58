package proto

import (
	"bytes"
	"net"
	"testing"

	"repro/internal/checksum"
)

// vecSink is a BuffersWriter-capable stream: the duck type the frame
// writer probes for writev support (net.TCPConn in production). It
// consumes the vector list the way net.Buffers.WriteTo does.
type vecSink struct {
	buf     bytes.Buffer
	writes  int // plain Write calls
	gathers int // WriteBuffers calls
	vecs    int // total vectors across all gathers
}

func (s *vecSink) Write(p []byte) (int, error) {
	s.writes++
	return s.buf.Write(p)
}

func (s *vecSink) Read(p []byte) (int, error) { return s.buf.Read(p) }

func (s *vecSink) WriteBuffers(bufs *net.Buffers) (int64, error) {
	s.gathers++
	var n int64
	for len(*bufs) > 0 {
		b := (*bufs)[0]
		*bufs = (*bufs)[1:]
		s.vecs++
		m, err := s.buf.Write(b)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// A full-size data packet on a gather-capable stream must go out as one
// vectored write — header+checksums staged, payload borrowed — with no
// sequential Write fallback and no payload copy into the stage.
func TestVectoredWriteUsesGather(t *testing.T) {
	data := make([]byte, DefaultPacketSize)
	for i := range data {
		data[i] = byte(i * 3)
	}
	sums := checksum.Sum(data, DefaultChunkSize)
	var sink vecSink
	c := NewConn(&sink)
	if err := c.WritePacket(&Packet{Seqno: 7, Sums: sums, Data: data, Last: true}); err != nil {
		t.Fatal(err)
	}
	if sink.gathers != 1 || sink.writes != 0 {
		t.Fatalf("full-size packet: %d gathers + %d plain writes, want 1 + 0", sink.gathers, sink.writes)
	}
	if sink.vecs != 2 {
		t.Fatalf("gather carried %d vectors, want 2 (staged header+sums, borrowed payload)", sink.vecs)
	}

	r := NewConn(&sink.buf)
	p, err := r.ReadPacket()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	if p.Seqno != 7 || !p.Last || !bytes.Equal(p.Data, data) {
		t.Fatalf("vectored frame corrupted: seqno=%d last=%v", p.Seqno, p.Last)
	}
	if err := checksum.VerifyEncoded(p.Data, p.RawSums, DefaultChunkSize); err != nil {
		t.Fatal(err)
	}
}

// Corked small frames coalesce in the stage and still leave as a single
// flush on the gather stream; the payload bytes must arrive intact.
func TestVectoredCorkedSmallFrames(t *testing.T) {
	small := make([]byte, 512)
	for i := range small {
		small[i] = byte(i)
	}
	sums := checksum.Sum(small, DefaultChunkSize)
	var sink vecSink
	c := NewConn(&sink)
	if err := c.SetCork(true); err != nil {
		t.Fatal(err)
	}
	const n = 6
	for i := 0; i < n; i++ {
		if err := c.WritePacket(&Packet{Seqno: int64(i), Sums: sums, Data: small}); err != nil {
			t.Fatal(err)
		}
	}
	if sink.gathers != 0 && sink.writes != 0 {
		t.Fatalf("corked small frames hit the transport early: %d gathers, %d writes", sink.gathers, sink.writes)
	}
	if err := c.SetCork(false); err != nil {
		t.Fatal(err)
	}
	// Contiguous staged frames merge into one span: a single plain
	// Write, not a gather of one vector.
	if total := sink.gathers + sink.writes; total != 1 {
		t.Fatalf("uncork flushed in %d transport ops (%d gathers, %d writes), want 1",
			total, sink.gathers, sink.writes)
	}
	r := NewConn(&sink.buf)
	for i := 0; i < n; i++ {
		p, err := r.ReadPacket()
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if p.Seqno != int64(i) || !bytes.Equal(p.Data, small) {
			t.Fatalf("packet %d corrupted after corked gather flush", i)
		}
		p.Release()
	}
}

// The writev path must stay allocation-free at steady state, corked and
// uncorked: the vector scratch, the stage, and the span list are all
// owned by the conn and reused across frames.
func TestVectoredWritePacketAllocs(t *testing.T) {
	skipUnderRace(t)
	data := make([]byte, DefaultPacketSize)
	sums := checksum.Sum(data, DefaultChunkSize)
	var sink vecSink
	c := NewConn(&sink)
	pkt := &Packet{Sums: sums, Data: data}

	avg := testing.AllocsPerRun(200, func() {
		sink.buf.Reset()
		if err := c.WritePacket(pkt); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Fatalf("uncorked vectored WritePacket allocates %.1f times per packet, want 0", avg)
	}

	if err := c.SetCork(true); err != nil {
		t.Fatal(err)
	}
	avg = testing.AllocsPerRun(200, func() {
		sink.buf.Reset()
		if err := c.WritePacket(pkt); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Fatalf("corked vectored WritePacket allocates %.1f times per packet, want 0", avg)
	}

	// Small corked packets exercise the stage-copy path instead of the
	// borrow path; the stage itself must also reach a steady size.
	smallData := make([]byte, 256)
	smallSums := checksum.Sum(smallData, DefaultChunkSize)
	smallPkt := &Packet{Sums: smallSums, Data: smallData}
	avg = testing.AllocsPerRun(200, func() {
		sink.buf.Reset()
		if err := c.WritePacket(smallPkt); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Fatalf("corked small WritePacket allocates %.1f times per packet, want 0", avg)
	}
}

// A corked conn flushes on its own once corkBytes are pending, without
// an uncork. Each payload stays under borrowMin so every frame is staged.
func TestAdaptiveCorkSizeThreshold(t *testing.T) {
	small := make([]byte, 2048)
	sums := checksum.Sum(small, DefaultChunkSize)
	var sink vecSink
	c := NewConn(&sink)
	if err := c.SetCork(true); err != nil {
		t.Fatal(err)
	}
	const frames = 128 // ~2 KiB each: twice the 128 KiB threshold
	for i := 0; i < frames; i++ {
		if err := c.WritePacket(&Packet{Seqno: int64(i), Sums: sums, Data: small}); err != nil {
			t.Fatal(err)
		}
	}
	if sink.buf.Len() == 0 {
		t.Fatalf("no auto-flush: %d frames staged past the %d-byte cork threshold", frames, corkBytes)
	}
	flushed := sink.gathers + sink.writes
	if flushed >= frames {
		t.Fatalf("auto-cork did not coalesce: %d transport ops for %d frames", flushed, frames)
	}
}
