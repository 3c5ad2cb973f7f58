package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/checksum"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/proto"
	"repro/internal/storage"
	"repro/internal/transport"
)

// Each probe times one layer's public calls alone, on the workload's
// pre-generated payload cut into the workload's packets, and repeats
// passes until it has measured for probeMin and made probePasses passes.
const (
	probeMin    = 200 * time.Millisecond
	probePasses = 5
)

// repeat runs pass until the probe minimums are met and returns the
// duration of each pass.
func repeat(pass func() error) ([]time.Duration, error) {
	var ds []time.Duration
	var total time.Duration
	for len(ds) < probePasses || total < probeMin {
		t0 := time.Now()
		if err := pass(); err != nil {
			return nil, err
		}
		d := time.Since(t0)
		ds = append(ds, d)
		total += d
	}
	return ds, nil
}

func rates(n int64, ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = mbps(n, d)
	}
	return out
}

func packetsOf(data []byte, size int) [][]byte {
	var out [][]byte
	for off := 0; off < len(data); off += size {
		out = append(out, data[off:min(off+size, len(data))])
	}
	return out
}

// probeLayers measures every layer the live workloads run through, each
// on its own, on data (one file's payload).
func probeLayers(b *bench, pool []byte, spec liveSpec) error {
	data := pool[:spec.fileBytes]
	pkts := packetsOf(data, spec.packetSize)
	n := int64(len(data))
	for _, p := range []struct {
		name string
		f    func(*bench, []byte, [][]byte, liveSpec) error
	}{
		{"checksum", probeChecksum},
		{"proto", probeProto},
		{"transport", probeTransport},
		{"datanode", probeSingleHop},
		{"storage", probeMemStore},
	} {
		if err := p.f(b, data, pkts, spec); err != nil {
			return fmt.Errorf("%s probe on %d bytes: %w", p.name, n, err)
		}
	}
	return nil
}

func probeChecksum(b *bench, data []byte, pkts [][]byte, _ liveSpec) error {
	var sums []uint32
	ds, err := repeat(func() error {
		for _, p := range pkts {
			sums = checksum.AppendSums(sums[:0], p, checksum.DefaultChunkSize)
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.setSample("checksum.sum_MBps", rates(int64(len(data)), ds))

	enc := make([][]byte, len(pkts))
	for i, p := range pkts {
		enc[i] = checksum.Encode(nil, checksum.Sum(p, checksum.DefaultChunkSize))
	}
	ds, err = repeat(func() error {
		for i, p := range pkts {
			if err := checksum.VerifyEncoded(p, enc[i], checksum.DefaultChunkSize); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.setSample("checksum.verify_MBps", rates(int64(len(data)), ds))
	return nil
}

// probeProto round-trips each packet through Conn.WritePacket and
// ReadPacket over an in-memory buffer; checksums are computed before
// timing, so only the frame codec is measured.
func probeProto(b *bench, _ []byte, pkts [][]byte, _ liveSpec) error {
	var buf bytes.Buffer
	c := proto.NewConn(&buf)
	sent := make([]proto.Packet, len(pkts))
	var off int64
	for i, p := range pkts {
		sent[i] = proto.Packet{Seqno: int64(i), Offset: off, Sums: checksum.Sum(p, checksum.DefaultChunkSize), Data: p}
		off += int64(len(p))
	}
	pass := func() error {
		for i := range sent {
			if err := c.WritePacket(&sent[i]); err != nil {
				return err
			}
			got, err := c.ReadPacket()
			if err != nil {
				return err
			}
			ok := got.Seqno == sent[i].Seqno && len(got.Data) == len(sent[i].Data)
			got.Release()
			if !ok {
				return fmt.Errorf("packet %d came back altered", i)
			}
		}
		return nil
	}
	if err := pass(); err != nil { // fills the frame pools
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ds, err := repeat(pass)
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	per := make([]float64, len(ds))
	for i, d := range ds {
		per[i] = us(d) / float64(len(pkts))
	}
	b.setSample("proto.packet_rt_us", per)
	b.set("proto.allocs_per_packet", float64(after.Mallocs-before.Mallocs)/float64(len(ds)*len(pkts)))
	return nil
}

// probeTransport copies the payload through one loopback connection of
// the transport package's TCP network, which is the ceiling a TCP write
// can reach, and times Dial alone.
func probeTransport(b *bench, data []byte, _ [][]byte, _ liveSpec) error {
	nw := transport.NewTCPNetwork(nil)
	ln, err := nw.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	// One slot: at most one connection is open at a time, so the drain
	// never blocks on a send after a pass failed.
	got := make(chan int64, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			n, _ := io.Copy(io.Discard, c)
			c.Close()
			got <- n
		}
	}()
	defer func() {
		ln.Close()
		wg.Wait()
	}()

	ds, err := repeat(func() error {
		c, err := nw.Dial("bench", ln.Addr())
		if err != nil {
			return err
		}
		for _, p := range packetsOf(data, ioChunk) {
			if _, err := c.Write(p); err != nil {
				c.Close()
				return err
			}
		}
		if err := c.Close(); err != nil {
			return err
		}
		if n := <-got; n != int64(len(data)) {
			return fmt.Errorf("receiver drained %d of %d bytes", n, len(data))
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.setSample("transport.tcp_copy_MBps", rates(int64(len(data)), ds))

	var dials []float64
	_, err = repeat(func() error {
		t0 := time.Now()
		c, err := nw.Dial("bench", ln.Addr())
		if err != nil {
			return err
		}
		dials = append(dials, us(time.Since(t0)))
		c.Close()
		<-got
		return nil
	})
	if err != nil {
		return err
	}
	b.setSample("transport.tcp_dial_us", dials)
	return nil
}

// probeSingleHop writes the payload at replication 1 to a one-datanode
// loopback TCP cluster: one client-to-datanode hop, no mirroring.
func probeSingleHop(b *bench, data []byte, _ [][]byte, spec liveSpec) error {
	c, err := cluster.StartTCP(cluster.Config{NumDatanodes: 1, Seed: b.seed})
	if err != nil {
		return err
	}
	defer c.Stop()
	cl, err := c.NewClient("bench-probe")
	if err != nil {
		return err
	}
	// Overwrite replaces the previous pass's file, so its replica is
	// freed without a Delete call inside the timed pass.
	opts := client.WriteOptions{Replication: 1, BlockSize: spec.blockSize, PacketSize: spec.packetSize, Overwrite: true}
	write := func() error {
		w, err := cl.CreateHDFS("/probe/single-hop", opts)
		if err != nil {
			return err
		}
		for _, p := range packetsOf(data, ioChunk) {
			if _, err := w.Write(p); err != nil {
				w.Close()
				return err
			}
		}
		if err := w.Close(); err != nil {
			return err
		}
		if st := w.Stats(); st.BytesWritten != int64(len(data)) {
			return fmt.Errorf("wrote %d of %d bytes", st.BytesWritten, len(data))
		}
		return nil
	}
	if err := write(); err != nil { // warm-up
		return err
	}
	ds, err := repeat(write)
	if err != nil {
		return err
	}
	b.setSample("datanode.single_hop_MBps", rates(int64(len(data)), ds))
	return nil
}

// probeMemStore stores the payload block by block the way a datanode
// does: Create, size hint, one Write per packet, Commit; then Delete.
func probeMemStore(b *bench, data []byte, _ [][]byte, spec liveSpec) error {
	st := storage.NewMemStore()
	var id block.ID
	ds, err := repeat(func() error {
		for _, blk := range packetsOf(data, int(spec.blockSize)) {
			id++
			w, err := st.Create(block.Block{ID: id, Gen: 1}, false)
			if err != nil {
				return err
			}
			if h, ok := w.(storage.SizeHinter); ok {
				h.SizeHint(int64(len(blk)))
			}
			for _, p := range packetsOf(blk, spec.packetSize) {
				if _, err := w.Write(p); err != nil {
					w.Close()
					return err
				}
			}
			if err := w.Commit(); err != nil {
				return err
			}
			if info, err := st.Info(id); err != nil || info.Len != int64(len(blk)) {
				return fmt.Errorf("block %d: stored %d of %d bytes (%v)", id, info.Len, len(blk), err)
			}
			if err := st.Delete(id); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.setSample("storage.memstore_write_MBps", rates(int64(len(data)), ds))
	return nil
}

// crossRackBytes is the cross-rack traffic a file's placement implies:
// a pipeline that starts at the client and visits each rack once
// crosses a rack boundary once per rack beyond the client's, carrying
// the whole block each time.
func crossRackBytes(blocks []block.LocatedBlock, fromRack string) int64 {
	var total int64
	for _, lb := range blocks {
		racks := map[string]bool{fromRack: true}
		for _, t := range lb.Targets {
			racks[t.Rack] = true
		}
		total += lb.Block.NumBytes * int64(len(racks)-1)
	}
	return total
}

// crossRackUtil is crossBytes over what one throttled cross-rack link
// could carry in d. Above 1 means several links carried cross-rack
// traffic at once.
func crossRackUtil(crossBytes int64, throttleMbps float64, d time.Duration) float64 {
	if throttleMbps <= 0 || d <= 0 {
		return 0
	}
	return float64(crossBytes) / (throttleMbps * 1e6 / 8 * d.Seconds())
}
