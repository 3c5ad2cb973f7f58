// Package hotbench holds the hot-path benchmark bodies shared between
// `go test -bench=HotPath` and cmd/smarth-hotpath (which runs them via
// testing.Benchmark and records BENCH_hotpath.json, the start of the
// repo's performance trajectory).
//
// Two layers are measured: the packet codec in isolation (encode +
// decode round trip of one 64 KB data packet) and the full live stack
// (a 64 MB upload through real checksummed pipelines over the in-memory
// transport, for both protocols). The interesting metrics are B/op and
// allocs/op — the write path is supposed to be allocation-free at
// steady state — alongside MB/s.
package hotbench

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"

	"repro/internal/checksum"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/transport"
	"repro/internal/workload"
)

// payload generates fileBytes of workload data once, outside any timed
// region, and returns a function that rewinds a reader over it. The
// struct wrapper hides bytes.Reader.WriteTo, so io.CopyBuffer keeps
// making 64 KiB writes instead of one fileBytes-sized Write.
func payload(fileBytes int64) func() io.Reader {
	data := workload.Data(1, int(fileBytes))
	r := bytes.NewReader(nil)
	var src io.Reader = struct{ io.Reader }{r}
	return func() io.Reader {
		r.Reset(data)
		return src
	}
}

// PacketRoundTrip encodes and decodes one full-size data packet per
// iteration over an in-memory stream, reusing one Conn so the steady
// state is visible (the first iterations warm the frame pools).
func PacketRoundTrip(b *testing.B) {
	data := make([]byte, proto.DefaultPacketSize)
	for i := range data {
		data[i] = byte(i)
	}
	var sums []uint32
	var buf bytes.Buffer
	c := proto.NewConn(&buf)
	b.SetBytes(proto.DefaultPacketSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sums = checksum.AppendSums(sums[:0], data, checksum.DefaultChunkSize)
		pkt := proto.Packet{Seqno: int64(i), Sums: sums, Data: data}
		if err := c.WritePacket(&pkt); err != nil {
			b.Fatal(err)
		}
		out, err := c.ReadPacket()
		if err != nil {
			b.Fatal(err)
		}
		if err := checksum.VerifyEncoded(out.Data, out.RawSums, checksum.DefaultChunkSize); err != nil {
			b.Fatal(err)
		}
		out.Release()
	}
}

// PacketRoundTripObs is PacketRoundTrip with the observability layer
// fully engaged: frame-level ConnMetrics attached to the conn and a live
// span recording sampled packet events. The codec path must stay
// allocation-free with instrumentation on — the counters are atomics and
// the sampled event append amortizes to ~0.
func PacketRoundTripObs(b *testing.B) {
	o := obs.New(nil)
	data := make([]byte, proto.DefaultPacketSize)
	for i := range data {
		data[i] = byte(i)
	}
	var sums []uint32
	var buf bytes.Buffer
	c := proto.NewConn(&buf)
	c.SetMetrics(obs.NewConnMetrics(o.Component("hotbench")))
	span := o.StartSpan("pipeline", nil)
	defer span.End()
	b.SetBytes(proto.DefaultPacketSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sums = checksum.AppendSums(sums[:0], data, checksum.DefaultChunkSize)
		pkt := proto.Packet{Seqno: int64(i), Sums: sums, Data: data}
		if err := c.WritePacket(&pkt); err != nil {
			b.Fatal(err)
		}
		span.Packet("send", int64(i))
		out, err := c.ReadPacket()
		if err != nil {
			b.Fatal(err)
		}
		if err := checksum.VerifyEncoded(out.Data, out.RawSums, checksum.DefaultChunkSize); err != nil {
			b.Fatal(err)
		}
		out.Release()
	}
}

// AckRoundTrip encodes and decodes one 3-replica data ack per iteration.
func AckRoundTrip(b *testing.B) {
	var buf bytes.Buffer
	c := proto.NewConn(&buf)
	statuses := []proto.Status{proto.StatusSuccess, proto.StatusSuccess, proto.StatusSuccess}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := proto.Ack{Kind: proto.AckData, Seqno: int64(i), Statuses: statuses}
		if err := c.WriteAck(&in); err != nil {
			b.Fatal(err)
		}
		out, err := c.ReadAck()
		if err != nil {
			b.Fatal(err)
		}
		if out.Seqno != int64(i) || !out.OK() {
			b.Fatalf("ack corrupted: %+v", out)
		}
	}
}

// LiveWrite uploads fileBytes through the real concurrent stack —
// checksums, pipelines, mirroring, acks — on an unshaped in-memory
// network, 3-way replicated in 1 MB blocks of 64 KB packets (the
// livebench scaling of the paper's 64 MB / 64 KB defaults).
func LiveWrite(b *testing.B, mode proto.WriteMode, fileBytes int64) {
	LiveWriteObs(b, mode, fileBytes, nil)
}

// LiveWriteObs is LiveWrite with an observability layer shared by every
// component (nil o reproduces the uninstrumented baseline). Comparing
// its B/op against LiveWrite bounds the cost of always-on metrics and
// tracing on the full stack.
func LiveWriteObs(b *testing.B, mode proto.WriteMode, fileBytes int64, o *obs.Obs) {
	c, err := cluster.Start(cluster.Config{NumDatanodes: 9, Seed: 1, Obs: o})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Stop()
	cl, err := c.NewClient("hotbench-client")
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	opts := client.WriteOptions{
		Replication: 3,
		BlockSize:   1 << 20,
		PacketSize:  64 << 10,
		Overwrite:   true,
	}
	cbuf := make([]byte, 64<<10)
	src := payload(fileBytes)
	upload := func(path string) {
		var w client.Writer
		if mode == proto.ModeSmarth {
			w, err = cl.CreateSmarth(path, opts)
		} else {
			w, err = cl.CreateHDFS(path, opts)
		}
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.CopyBuffer(struct{ io.Writer }{w}, src(), cbuf); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
	upload(fmt.Sprintf("/hotbench/%s/warmup", mode)) // warm the buffer pools untimed
	b.SetBytes(fileBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		upload(fmt.Sprintf("/hotbench/%s/%d", mode, i))
	}
}

// LiveWriteTCP is LiveWrite on real loopback TCP sockets instead of the
// in-memory transport: kernel socket buffers, writev batching, and
// corking are all in play. repl sets the replication factor
// (1 isolates single-hop protocol overhead against RawCopyTCP, which
// moves each byte across the loopback exactly once; 3 is the paper's
// pipeline). Blocks are 8 MB so the 64 MB upload spans several pipelines without
// being dominated by setup.
func LiveWriteTCP(b *testing.B, mode proto.WriteMode, fileBytes int64, repl int) {
	c, err := cluster.StartTCP(cluster.Config{NumDatanodes: 3, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Stop()
	cl, err := c.NewClient("hotbench-tcp-client")
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	opts := client.WriteOptions{
		Replication: repl,
		BlockSize:   8 << 20,
		PacketSize:  64 << 10,
		Overwrite:   true,
	}
	cbuf := make([]byte, 64<<10)
	src := payload(fileBytes)
	upload := func(path string) {
		var w client.Writer
		if mode == proto.ModeSmarth {
			w, err = cl.CreateSmarth(path, opts)
		} else {
			w, err = cl.CreateHDFS(path, opts)
		}
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.CopyBuffer(struct{ io.Writer }{w}, src(), cbuf); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
	upload(fmt.Sprintf("/hotbench-tcp/%s/warmup", mode)) // warm the buffer pools untimed
	b.SetBytes(fileBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		upload(fmt.Sprintf("/hotbench-tcp/%s/%d", mode, i))
	}
}

// LiveReadTCP is LiveRead on real loopback TCP sockets. The file is
// written once (replication 3, 8 MB blocks) outside the timed region.
func LiveReadTCP(b *testing.B, ro client.ReadOptions, fileBytes int64) {
	c, err := cluster.StartTCP(cluster.Config{NumDatanodes: 3, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Stop()
	cl, err := c.NewClient("hotbench-tcp-client")
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	w, err := cl.CreateSmarth("/hotbench-tcp/read", client.WriteOptions{
		Replication: 3,
		BlockSize:   8 << 20,
		PacketSize:  64 << 10,
		Overwrite:   true,
	})
	if err != nil {
		b.Fatal(err)
	}
	cbuf := make([]byte, 64<<10)
	if _, err := io.CopyBuffer(struct{ io.Writer }{w}, payload(fileBytes)(), cbuf); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fileBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := cl.OpenWith("/hotbench-tcp/read", ro)
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.CopyBuffer(struct{ io.Writer }{io.Discard}, r, cbuf)
		if err != nil {
			b.Fatal(err)
		}
		if n != fileBytes {
			b.Fatalf("read %d bytes, want %d", n, fileBytes)
		}
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// RawCopyTCP is the reference ceiling for the TCP benchmarks: fileBytes
// pushed through one loopback socket pair with io.CopyBuffer and no
// protocol at all, using the same socket tuning the transport applies
// (1 MB kernel buffers, TCP_NODELAY). Every protocol benchmark pays at
// least this much per hop; LiveWriteTCP at replication 1 divided by
// this number is the write path's framing + checksum overhead.
func RawCopyTCP(b *testing.B, fileBytes int64) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	drained := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			drained <- err
			return
		}
		_, err = io.Copy(io.Discard, c)
		c.Close()
		drained <- err
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		t := transport.DefaultTCPTuning
		_ = tc.SetReadBuffer(t.ReadBuffer)
		_ = tc.SetWriteBuffer(t.WriteBuffer)
		_ = tc.SetNoDelay(!t.DisableNoDelay)
	}
	cbuf := make([]byte, 64<<10)
	src := payload(fileBytes)
	b.SetBytes(fileBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := io.CopyBuffer(struct{ io.Writer }{conn}, src(), cbuf); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	conn.Close()
	if err := <-drained; err != nil {
		b.Fatal(err)
	}
}

// LiveRead streams one fileBytes file back through the real read stack —
// ranged block reads, wire checksum verification, pooled packets — on an
// unshaped in-memory network, with the read behavior set by ro: the
// SMARTH configuration keeps next-block prefetch on, the HDFS baseline
// disables prefetch and hedging (dial-handshake-drain per block, like
// the stock DFSInputStream). The file is written once outside the timed
// region; each iteration is one full sequential read into a reused
// buffer.
func LiveRead(b *testing.B, ro client.ReadOptions, fileBytes int64) {
	c, err := cluster.Start(cluster.Config{NumDatanodes: 9, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Stop()
	cl, err := c.NewClient("hotbench-client")
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	w, err := cl.CreateSmarth("/hotbench/read", client.WriteOptions{
		Replication: 3,
		BlockSize:   1 << 20,
		PacketSize:  64 << 10,
		Overwrite:   true,
	})
	if err != nil {
		b.Fatal(err)
	}
	cbuf := make([]byte, 64<<10)
	if _, err := io.CopyBuffer(struct{ io.Writer }{w}, payload(fileBytes)(), cbuf); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fileBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := cl.OpenWith("/hotbench/read", ro)
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.CopyBuffer(struct{ io.Writer }{io.Discard}, r, cbuf)
		if err != nil {
			b.Fatal(err)
		}
		if n != fileBytes {
			b.Fatalf("read %d bytes, want %d", n, fileBytes)
		}
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
