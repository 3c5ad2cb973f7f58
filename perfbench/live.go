package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/ec2"
	"repro/internal/nnapi"
	"repro/internal/proto"
	"repro/internal/workload"
)

// liveSpec is one workload on the live stack.
type liveSpec struct {
	tcp        bool    // loopback TCP (cluster.StartTCP) instead of the shaped in-memory network
	datanodes  int     // ignored when shaped: the SmallCluster preset has 9
	crossMbps  float64 // cross-rack throttle on the shaped network (0 = none)
	fileBytes  int
	blockSize  int64
	packetSize int
	writers    int // closed-loop writer goroutines, one client each
	prefill    int // empty files created during set-up
	listEvery  int // writer 0 lists the namespace after this many files
}

var liveSpecs = map[string]liveSpec{
	// The paper's §V-B.1 cluster scaled 512x: SmallCluster NIC rates,
	// racks 5+4, client in rack A, cross-rack links at 100 Mbps.
	"paper-throttled": {crossMbps: 100, fileBytes: 16 << 20, blockSize: 512 << 10, packetSize: 64 << 10, writers: 1, listEvery: 2},
	// The same cluster with no throttle: NIC-bound, where the paper
	// finds SMARTH and HDFS on par (its Figure 5a).
	"paper-unthrottled": {fileBytes: 16 << 20, blockSize: 512 << 10, packetSize: 64 << 10, writers: 1, listEvery: 2},
	// CPU-bound over loopback TCP: checksum, framing, transport and
	// storage do most of the work; with 3 datanodes at replication 3
	// SMARTH runs one pipeline at a time.
	"tcp-bulk": {tcp: true, datanodes: 3, fileBytes: 64 << 20, blockSize: 8 << 20, packetSize: 64 << 10, writers: 1, listEvery: 2},
	// Per-file cost instead of bytes: namenode RPCs, pipeline set-up and
	// the close-time complete, with 2k files already in the namespace.
	"small-files": {tcp: true, datanodes: 3, fileBytes: 64 << 10, blockSize: 1 << 20, packetSize: 64 << 10, writers: 2, prefill: 2000, listEvery: 50},
}

const (
	clientRack = "/rack-a"
	// ioChunk is the size of each Write and each ReadFull the benchmark
	// issues, so a 64 MB file is 64 spans per direction, not thousands.
	ioChunk = 1 << 20
	// poolSlack lets file k start its payload at a different offset of
	// one pre-generated pool, so consecutive files carry different bytes.
	poolSlack  = 1 << 20
	prefillDir = "/bench/pre/"
)

func rackFor(i int) string {
	if i < 5 {
		return "/rack-a"
	}
	return "/rack-b"
}

// liveRun is one set-up of a live workload: payload, cluster, clients.
type liveRun struct {
	spec    liveSpec
	pool    []byte
	c       *cluster.Cluster
	clients []*client.Client
	opts    client.WriteOptions
	bufs    [][]byte // one read buffer per writer
}

func (r *liveRun) payload(k int) []byte {
	off := (k % 256) * (poolSlack / 256)
	return r.pool[off : off+r.spec.fileBytes]
}

func (r *liveRun) stop() {
	if r.c != nil {
		r.c.Stop()
	}
}

// setupLive boots the cluster on the pre-generated payload pool, fills
// the namespace, and warms every client with one verified one-block
// lifecycle per write mode.
func setupLive(b *bench, spec liveSpec, pool []byte) (*liveRun, error) {
	r := &liveRun{spec: spec, pool: pool, opts: client.WriteOptions{
		Replication: 3,
		BlockSize:   spec.blockSize,
		PacketSize:  spec.packetSize,
	}}
	var err error
	if spec.tcp {
		r.c, err = cluster.StartTCP(cluster.Config{NumDatanodes: spec.datanodes, Seed: b.seed})
	} else {
		r.c, err = cluster.Start(cluster.Config{
			NumDatanodes: len(ec2.SmallCluster.Datanodes),
			RackFor:      rackFor,
			Shaper:       paperShaper(spec.crossMbps, spec.writers),
			Seed:         b.seed,
		})
	}
	if err != nil {
		return nil, fmt.Errorf("boot cluster: %w", err)
	}
	for w := 0; w < spec.writers; w++ {
		cl, err := r.c.NewClient(clientName(w))
		if err != nil {
			r.stop()
			return nil, fmt.Errorf("new client: %w", err)
		}
		r.clients = append(r.clients, cl)
		r.bufs = append(r.bufs, make([]byte, ioChunk))
	}
	for i := 0; i < spec.prefill; i++ {
		w, err := r.clients[0].CreateSmarth(fmt.Sprintf("%s%05d", prefillDir, i), r.opts)
		if err == nil {
			err = w.Close()
		}
		if err != nil {
			r.stop()
			return nil, fmt.Errorf("prefill: %w", err)
		}
	}
	for w, cl := range r.clients {
		for _, mode := range []proto.WriteMode{proto.ModeSmarth, proto.ModeHDFS} {
			path := fmt.Sprintf("/bench/warmup/%d-%s", w, mode)
			data := r.payload(w)[:min(int64(spec.fileBytes), spec.blockSize)]
			if _, err := r.lifecycle(cl, w, path, data, mode, nil); b.op(err) != nil {
				r.stop()
				return nil, err
			}
		}
	}
	return r, nil
}

func clientName(w int) string { return fmt.Sprintf("bench-client-%d", w) }

// paperShaper is the tc plan of the paper's §V-B.1: Table I NIC rates,
// and every node's (and client's) cross-rack traffic throttled.
func paperShaper(crossMbps float64, writers int) *cluster.Shaper {
	sh := cluster.NewShaper(nil)
	cross := crossMbps * 1e6 / 8
	for i, inst := range ec2.SmallCluster.Datanodes {
		name := cluster.DatanodeName(i)
		sh.SetNode(name, rackFor(i), inst.NetworkBps())
		sh.SetCrossRackLimit(name, cross)
	}
	for w := 0; w < writers; w++ {
		sh.SetNode(clientName(w), clientRack, ec2.SmallCluster.Client.NetworkBps())
		sh.SetCrossRackLimit(clientName(w), cross)
	}
	return sh
}

// fileSample is one file's lifecycle: create, write, close, verified
// read, GetFileInfo, delete.
type fileSample struct {
	mode      proto.WriteMode
	traced    bool
	bytes     int
	create    time.Duration
	inWrite   time.Duration // summed over the Write calls
	close     time.Duration
	upload    time.Duration // Create called to Close returned
	openFirst time.Duration // Open called to first byte returned
	read      time.Duration // Open called to verified EOF
	info      time.Duration
	del       time.Duration
	life      time.Duration
	stats     client.WriteStats
	crossUtil float64 // traced SMARTH files on a throttled network; else -1
}

func (r *liveRun) lifecycle(cl *client.Client, w int, path string, data []byte, mode proto.WriteMode, tr *tracer) (fileSample, error) {
	s := fileSample{mode: mode, traced: tr != nil, bytes: len(data), crossUtil: -1}
	root := tr.begin("file", nil)
	defer root.end()
	t0 := time.Now()

	var fw client.Writer
	var err error
	s.create, err = tr.timed("client.create", root, func() (err error) {
		if mode == proto.ModeSmarth {
			fw, err = cl.CreateSmarth(path, r.opts)
		} else {
			fw, err = cl.CreateHDFS(path, r.opts)
		}
		return err
	})
	if err != nil {
		return s, fmt.Errorf("create %s: %w", path, err)
	}
	for off := 0; off < len(data); off += ioChunk {
		chunk := data[off:min(off+ioChunk, len(data))]
		d, err := tr.timed("client.write", root, func() error {
			_, err := fw.Write(chunk)
			return err
		})
		s.inWrite += d
		if err != nil {
			fw.Close()
			return s, fmt.Errorf("write %s at %d: %w", path, off, err)
		}
	}
	if s.close, err = tr.timed("client.close", root, fw.Close); err != nil {
		return s, fmt.Errorf("close %s: %w", path, err)
	}
	s.upload = time.Since(t0)
	s.stats = fw.Stats()

	if err := r.readBack(cl, path, data, r.bufs[w], tr, root, &s); err != nil {
		return s, err
	}

	var info nnapi.GetFileInfoResp
	s.info, err = tr.timed("namenode.getfileinfo", root, func() (err error) {
		info, err = cl.GetFileInfo(path)
		return err
	})
	if err != nil {
		return s, fmt.Errorf("getfileinfo %s: %w", path, err)
	}
	if !info.Exists || !info.Complete || info.Len != int64(len(data)) {
		return s, fmt.Errorf("getfileinfo %s: exists=%v complete=%v len=%d, want a complete file of %d bytes",
			path, info.Exists, info.Complete, info.Len, len(data))
	}

	if tr != nil && r.spec.crossMbps > 0 && mode == proto.ModeSmarth {
		var locs nnapi.GetBlockLocationsResp
		_, err := tr.timed("namenode.getblocklocations", root, func() (err error) {
			locs, err = r.c.NN.GetBlockLocations(nnapi.GetBlockLocationsReq{Path: path, Client: cl.Name()})
			return err
		})
		if err != nil {
			return s, fmt.Errorf("getblocklocations %s: %w", path, err)
		}
		s.crossUtil = crossRackUtil(crossRackBytes(locs.Blocks, clientRack), r.spec.crossMbps, s.upload)
	}

	var deleted bool
	s.del, err = tr.timed("namenode.delete", root, func() (err error) {
		deleted, err = cl.Delete(path)
		return err
	})
	if err != nil {
		return s, fmt.Errorf("delete %s: %w", path, err)
	}
	if !deleted {
		return s, fmt.Errorf("delete %s: file did not exist", path)
	}
	s.life = time.Since(t0)
	return s, nil
}

// readBack streams the file and compares it, chunk by chunk, with the
// payload it was written from.
func (r *liveRun) readBack(cl *client.Client, path string, want, buf []byte, tr *tracer, root *span, s *fileSample) error {
	start := time.Now()
	first := tr.begin("client.open_first_byte", root)
	rc, err := cl.Open(path)
	if err != nil {
		first.end()
		return fmt.Errorf("open %s: %w", path, err)
	}
	defer rc.Close()
	var n int
	for n == 0 && err == nil {
		n, err = rc.Read(buf[:min(len(buf), len(want))])
	}
	first.end()
	if n == 0 {
		return fmt.Errorf("read %s: no first byte: %w", path, err)
	}
	s.openFirst = time.Since(start)
	if err := compare(path, buf[:n], want, 0); err != nil {
		return err
	}
	off := n
	for off < len(want) {
		_, err := tr.timed("client.read", root, func() (err error) {
			n, err = io.ReadFull(rc, buf[:min(len(buf), len(want)-off)])
			return err
		})
		if err != nil {
			return fmt.Errorf("read %s at %d: %w", path, off+n, err)
		}
		if err := compare(path, buf[:n], want, off); err != nil {
			return err
		}
		off += n
	}
	if n, err := rc.Read(buf[:1]); n != 0 || !errors.Is(err, io.EOF) {
		return fmt.Errorf("read %s: %d bytes past the expected length %d (err %v)", path, n, len(want), err)
	}
	if err := rc.Close(); err != nil {
		return fmt.Errorf("close reader %s: %w", path, err)
	}
	s.read = time.Since(start)
	return nil
}

func compare(path string, got, want []byte, off int) error {
	exp := want[off : off+len(got)]
	if bytes.Equal(got, exp) {
		return nil
	}
	for i := range got {
		if got[i] != exp[i] {
			return fmt.Errorf("read %s: byte %d is %#x, want %#x", path, off+i, got[i], exp[i])
		}
	}
	return nil
}

// writerOut is what one closed-loop writer produced.
type writerOut struct {
	files []fileSample
	lists []time.Duration
	err   error
	end   time.Time
}

// loop runs writer w's closed loop until the deadline. Files come in
// pairs, one per write mode, and the pair's order alternates so neither
// mode always runs first. With tracing on, every other pair is traced.
func (r *liveRun) loop(w int, deadline time.Time, traced *tracer, out *writerOut) {
	cl := r.clients[w]
	defer func() { out.end = time.Now() }()
	for i := 0; ; i++ {
		pair := i / 2
		if i%2 == 0 && !time.Now().Before(deadline) {
			return
		}
		mode := proto.ModeSmarth
		if (pair%2 == 0) != (i%2 == 0) {
			mode = proto.ModeHDFS
		}
		var tr *tracer
		if pair%2 == 1 {
			tr = traced
		}
		k := i*r.spec.writers + w
		s, err := r.lifecycle(cl, w, fmt.Sprintf("/bench/w%d/%d", w, i), r.payload(k), mode, tr)
		if err != nil {
			out.err = err
			return
		}
		out.files = append(out.files, s)
		if w == 0 && (i+1)%r.spec.listEvery == 0 {
			if err := r.list(cl, tr, out); err != nil {
				out.err = err
				return
			}
		}
	}
}

// list lists the prefilled directory when there is one, else writer 0's
// own directory, and checks the count against the prefill.
func (r *liveRun) list(cl *client.Client, tr *tracer, out *writerOut) error {
	prefix := "/bench/w0/"
	if r.spec.prefill > 0 {
		prefix = prefillDir
	}
	var files []nnapi.FileStatus
	root := tr.begin("list", nil)
	defer root.end()
	d, err := tr.timed("namenode.list", root, func() (err error) {
		files, err = cl.List(prefix)
		return err
	})
	if err != nil {
		return fmt.Errorf("list: %w", err)
	}
	if r.spec.prefill > 0 && len(files) != r.spec.prefill {
		return fmt.Errorf("list %s: %d files, want %d", prefillDir, len(files), r.spec.prefill)
	}
	out.lists = append(out.lists, d)
	return nil
}

func runLive(b *bench, spec liveSpec) error {
	// Set-up is generating the payload once, then booting and warming a
	// cluster setupReps times; the last cluster is the one measured.
	g0 := time.Now()
	pool := workload.Data(b.seed, spec.fileBytes+poolSlack)
	gen := time.Since(g0)
	b.set("workload.gen_MBps", mbps(int64(len(pool)), gen))
	var r *liveRun
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if r != nil {
			r.stop()
		}
		t0 := time.Now()
		var err error
		if r, err = setupLive(b, spec, pool); err != nil {
			return err
		}
		setups = append(setups, (gen + time.Since(t0)).Seconds())
	}
	defer r.stop()
	b.setSample("setup_s", setups)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(b.seconds)
	outs := make([]writerOut, spec.writers)
	var wg sync.WaitGroup
	for w := range outs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r.loop(w, deadline, b.tr, &outs[w])
		}(w)
	}
	wg.Wait()
	runtime.ReadMemStats(&after)

	var files []fileSample
	var lists []time.Duration
	end := start
	var loopErr error
	for _, o := range outs {
		files = append(files, o.files...)
		lists = append(lists, o.lists...)
		if o.end.After(end) {
			end = o.end
		}
		b.attempted += len(o.files)
		if o.err != nil {
			b.op(o.err)
			loopErr = o.err
		}
	}
	b.attempted += len(lists)
	elapsed := end.Sub(start)
	liveMetrics(b, spec, files, lists, elapsed)

	var written int64
	for _, f := range files {
		written += int64(f.bytes)
	}
	if written > 0 {
		b.set("runtime.alloc_B_per_payload_B", float64(after.TotalAlloc-before.TotalAlloc)/float64(written))
		b.set("runtime.gc_cycles_per_GB", float64(after.NumGC-before.NumGC)/(float64(written)/1e9))
	}
	if loopErr != nil {
		return loopErr
	}
	if b.trace {
		if err := probeLayers(b, r.pool, spec); err != nil {
			return err
		}
		if write, ok := b.metrics["write_MBps"]; ok && b.metrics["transport.tcp_copy_MBps"] > 0 {
			b.set("transport.write_of_ceiling", write/b.metrics["transport.tcp_copy_MBps"])
		}
		if !spec.tcp {
			if err := simTwin(b, spec.crossMbps); err != nil {
				return err
			}
		}
	}
	return nil
}

// liveMetrics derives every live metric from the loop's samples.
// End-to-end figures use only untraced files.
func liveMetrics(b *bench, spec liveSpec, files []fileSample, lists []time.Duration, elapsed time.Duration) {
	var (
		writeS, writeH, life, lifeTraced, reads        []float64
		create, closeS, first, info, del, util, listMs []float64
		uploadS, uploadH                               []float64
		inWrite, upload                                time.Duration
		peak, recoveries                               int
	)
	for _, f := range files {
		create = append(create, ms(f.create))
		first = append(first, ms(f.openFirst))
		info = append(info, us(f.info))
		del = append(del, us(f.del))
		recoveries += f.stats.Recoveries
		if !f.traced {
			reads = append(reads, mbps(int64(f.bytes), f.read))
		}
		if f.mode != proto.ModeSmarth {
			if !f.traced {
				writeH = append(writeH, mbps(int64(f.bytes), f.upload))
				uploadH = append(uploadH, f.upload.Seconds())
			}
			continue
		}
		closeS = append(closeS, ms(f.close))
		inWrite += f.inWrite
		upload += f.upload
		peak = max(peak, f.stats.PeakPipelines)
		if f.crossUtil >= 0 {
			util = append(util, f.crossUtil)
		}
		if f.traced {
			lifeTraced = append(lifeTraced, ms(f.life))
			continue
		}
		writeS = append(writeS, mbps(int64(f.bytes), f.upload))
		uploadS = append(uploadS, f.upload.Seconds())
		life = append(life, ms(f.life))
	}
	for _, d := range lists {
		listMs = append(listMs, ms(d))
	}
	b.setSample("write_MBps", writeS)
	b.setSample("hdfs_write_MBps", writeH)
	if elapsed > 0 {
		b.set("file_ops_per_s", float64(len(files))/elapsed.Seconds())
	}
	b.setSample("file_p50_ms", life)
	if supports(len(life), 0.99) {
		b.set("file_p99_ms", quantile(life, 0.99))
	}
	b.setSample("read_MBps", reads)
	b.setSample("client.create_ms", create)
	b.setSample("client.close_ms", closeS)
	b.setSample("client.open_first_byte_ms", first)
	if upload > 0 {
		b.set("client.write_blocked_share", float64(inWrite)/float64(upload))
	}
	b.set("client.peak_pipelines", float64(peak))
	b.set("client.recoveries", float64(recoveries))
	b.setSample("namenode.getfileinfo_p50_us", info)
	if supports(len(info), 0.99) {
		b.set("namenode.getfileinfo_p99_us", quantile(info, 0.99))
	}
	b.setSample("namenode.delete_p50_us", del)
	b.setSample("namenode.list_ms", listMs)
	b.setSample("shaper.crossrack_util", util)
	if len(uploadS) > 0 && len(uploadH) > 0 {
		b.set("paper.live_speedup", median(uploadH)/median(uploadS))
	}
	if len(life) > 0 && len(lifeTraced) > 0 {
		b.set("trace.overhead_pct", 100*(median(lifeTraced)/median(life)-1))
	}
}
