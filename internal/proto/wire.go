package proto

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/bufpool"
	"repro/internal/checksum"
	"repro/internal/clock"
	"repro/internal/obs"
)

// packetPool recycles Packet structs between ReadPacket and Release.
var packetPool = sync.Pool{New: func() any { return new(Packet) }}

// releaseFrame returns a pooled frame buffer. nil is ignored.
func releaseFrame(fr *[]byte) { bufpool.Put(fr) }

// deadlineSetter is the subset of net.Conn deadline control that
// transport conns implement; streams without it simply don't support
// timeouts (SetReadTimeout/SetWriteTimeout become no-ops).
type deadlineSetter interface {
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

// buffersWriter is implemented by streams that can emit a vector of
// buffers in one gather call (writev on the TCP substrate). The frame
// writer duck-types on it at flush time; streams without it get
// sequential writes, which is behaviorally identical.
type buffersWriter interface {
	WriteBuffers(*net.Buffers) (int64, error)
}

const (
	// borrowMin is the smallest frame tail worth sending as its own
	// write vector. Tails at least this large are borrowed (zero-copy)
	// and force a flush before writeFrame returns, which is what keeps
	// WritePacket's "never retains any field" contract true; smaller
	// tails are copied into the staging buffer so tiny frames coalesce.
	borrowMin = 4 << 10

	// corkBytes is the pending-byte threshold at which a corked conn
	// flushes anyway. Matches the write-buffer size the pre-vectored
	// implementation flushed at.
	corkBytes = 128 << 10

	// directReadMin is the smallest body remainder read straight from
	// the underlying stream instead of through the read buffer, skipping
	// one copy. Below it, going through bufio is cheaper than a syscall.
	directReadMin = 512

	// readBufSize sizes the buffered reader. It only needs to cover
	// frame prefixes and small control frames (headers, acks, packet
	// headers plus checksums); packet payloads scatter straight into
	// pooled frame buffers via readBody.
	readBufSize = 8 << 10
)

// wspan is one pending write vector: either a range of frameWriter.stage
// (ext nil) or a borrowed external buffer. Stage spans hold offsets, not
// slices, so stage may reallocate while spans are pending.
type wspan struct {
	ext      []byte
	off, end int
}

// frameWriter accumulates frames as write vectors and emits them in one
// gather write per flush. Small byte runs are copied into stage (adjacent
// runs merge into one span); large payloads are borrowed and flushed
// before the caller regains ownership.
type frameWriter struct {
	w  io.Writer
	bw buffersWriter // non-nil when w supports gather writes

	stage   []byte
	spans   []wspan
	pending int

	vecs   [][]byte    // flush scratch; cleared of refs after use
	gather net.Buffers // header handed to WriteBuffers, which advances it
}

// stageBytes copies p into the staging buffer, merging with the previous
// span when contiguous.
func (f *frameWriter) stageBytes(p []byte) {
	if len(p) == 0 {
		return
	}
	off := len(f.stage)
	f.stage = append(f.stage, p...)
	if n := len(f.spans); n > 0 && f.spans[n-1].ext == nil && f.spans[n-1].end == off {
		f.spans[n-1].end = len(f.stage)
	} else {
		f.spans = append(f.spans, wspan{off: off, end: len(f.stage)})
	}
	f.pending += len(p)
}

// borrow appends p as its own vector without copying. The caller must
// flush before p's owner may reuse it.
func (f *frameWriter) borrow(p []byte) {
	if len(p) == 0 {
		return
	}
	f.spans = append(f.spans, wspan{ext: p})
	f.pending += len(p)
}

// flush writes every pending span — one writev when the stream supports
// gather writes, sequential writes otherwise — and resets the writer.
// External buffer references are dropped either way.
func (f *frameWriter) flush() error {
	if len(f.spans) == 0 {
		return nil
	}
	f.vecs = f.vecs[:0]
	for _, s := range f.spans {
		if s.ext != nil {
			f.vecs = append(f.vecs, s.ext)
		} else {
			f.vecs = append(f.vecs, f.stage[s.off:s.end])
		}
	}
	var err error
	if f.bw != nil && len(f.vecs) > 1 {
		// Hand WriteBuffers its own slice header: it advances (and may
		// re-slice entries of) whatever it is given, and f.vecs must keep
		// spanning the whole backing array so the cleanup below sees every
		// entry.
		f.gather = f.vecs
		_, err = f.bw.WriteBuffers(&f.gather)
		f.gather = nil
	} else {
		for _, v := range f.vecs {
			if _, werr := f.w.Write(v); werr != nil {
				err = werr
				break
			}
		}
	}
	// Drop payload references: pending borrowed buffers must not outlive
	// the flush (their owners recycle them).
	for i := range f.vecs {
		f.vecs[i] = nil
	}
	f.vecs = f.vecs[:0]
	f.spans = f.spans[:0]
	f.stage = f.stage[:0]
	f.pending = 0
	return err
}

// clockBox wraps a clock so it can live in an atomic.Pointer (interfaces
// of differing concrete types cannot be stored in atomic.Value directly).
type clockBox struct{ c clock.Clock }

var systemClockBox = &clockBox{clock.System}

// Conn wraps a stream with buffered, frame-oriented message I/O. It is
// safe for one concurrent reader and one concurrent writer, which matches
// pipeline usage (packets flow one way, acks the other on a second Conn).
type Conn struct {
	r   *bufio.Reader
	raw io.ReadWriter // underlying stream, for scatter body reads
	fw  frameWriter
	c   io.Closer
	d   deadlineSetter

	// corked suppresses the per-data-packet flush; owned by the writing
	// side, like fw.
	corked bool

	// whdr/rhdr are length-prefix scratch — fields rather than locals so
	// they don't escape per frame.
	whdr [4]byte
	rhdr [4]byte

	// ack and ackStatuses back the *Ack returned by ReadAck, so the
	// per-packet ack stream decodes without allocating. Owned by the
	// reading side, like r.
	ack         Ack
	ackStatuses []Status

	// metrics, when set, receives frame-level counters (bytes and frames
	// each way, flushes, corked frames). All increments are atomic and
	// allocation-free, so metrics may stay attached on the hot path.
	metrics *obs.ConnMetrics

	// Timeouts and the clock are atomics, not mutex-guarded: both the
	// reader and the writer consult them on every frame, and a watchdog
	// may retune them concurrently.
	clk      atomic.Pointer[clockBox]
	rTimeout atomic.Int64 // nanoseconds; <= 0 disabled
	wTimeout atomic.Int64
}

// NewConn wraps rw. If rw is an io.Closer, Close closes it; if it
// supports deadlines, per-operation timeouts become available; if it
// supports gather writes (WriteBuffers), frames go out as one writev.
func NewConn(rw io.ReadWriter) *Conn {
	c, _ := rw.(io.Closer)
	d, _ := rw.(deadlineSetter)
	bw, _ := rw.(buffersWriter)
	cn := &Conn{
		r:   bufio.NewReaderSize(rw, readBufSize),
		raw: rw,
		fw:  frameWriter{w: rw, bw: bw},
		c:   c,
		d:   d,
	}
	cn.clk.Store(systemClockBox)
	return cn
}

// SetClock replaces the clock used to compute operation deadlines (for
// virtual-time runs). nil restores the system clock.
func (c *Conn) SetClock(clk clock.Clock) {
	if clk == nil {
		c.clk.Store(systemClockBox)
		return
	}
	c.clk.Store(&clockBox{clk})
}

func (c *Conn) clock() clock.Clock { return c.clk.Load().c }

// SetReadTimeout bounds each subsequent frame read (header, packet or
// ack): the deadline is re-armed per operation, so it is a progress
// timeout, not a whole-stream budget. d <= 0 disables the bound. No-op
// if the underlying stream has no deadline support.
func (c *Conn) SetReadTimeout(d time.Duration) {
	if c.d == nil {
		return
	}
	c.rTimeout.Store(int64(d))
	if d <= 0 {
		c.d.SetReadDeadline(time.Time{})
	}
}

// SetWriteTimeout bounds each subsequent frame write. d <= 0 disables
// the bound. No-op if the underlying stream has no deadline support.
func (c *Conn) SetWriteTimeout(d time.Duration) {
	if c.d == nil {
		return
	}
	c.wTimeout.Store(int64(d))
	if d <= 0 {
		c.d.SetWriteDeadline(time.Time{})
	}
}

// armRead applies the per-operation read deadline, if any.
func (c *Conn) armRead() {
	if c.d == nil {
		return
	}
	if d := time.Duration(c.rTimeout.Load()); d > 0 {
		c.d.SetReadDeadline(c.clock().Now().Add(d))
	}
}

// armWrite applies the per-operation write deadline, if any.
func (c *Conn) armWrite() {
	if c.d == nil {
		return
	}
	if d := time.Duration(c.wTimeout.Load()); d > 0 {
		c.d.SetWriteDeadline(c.clock().Now().Add(d))
	}
}

// SetMetrics attaches frame-level counters to the conn (nil detaches).
// Set it before the conn carries traffic; the counters themselves are
// concurrency-safe, so one ConnMetrics may be shared by many conns to
// aggregate per component (e.g. per datanode).
func (c *Conn) SetMetrics(m *obs.ConnMetrics) { c.metrics = m }

// Close closes the underlying stream if it is closable.
func (c *Conn) Close() error {
	if c.c != nil {
		return c.c.Close()
	}
	return nil
}

// Flush forces buffered writes onto the wire.
func (c *Conn) Flush() error { return c.flushPending() }

// SetCork toggles corked output. While corked, data packets are not
// flushed per frame: small frames accumulate and reach the wire once
// corkBytes are pending, when a Last packet is written, or on an
// explicit Flush. Large packet payloads always flush — they are
// borrowed zero-copy and must not outlive WritePacket — so the cork
// only ever delays cheap-to-buffer control-sized frames. Headers
// and acks always flush eagerly regardless: they are latency-sensitive
// control traffic (pipeline setup, per-packet acks, the FNFA) that must
// never sit behind a cork. Uncorking flushes whatever is pending.
//
// Like writes themselves, SetCork belongs to the Conn's single writing
// goroutine.
func (c *Conn) SetCork(on bool) error {
	c.corked = on
	if !on {
		return c.flushPending()
	}
	return nil
}

// flushPending arms the write deadline and pushes every pending span to
// the wire in one gather write.
func (c *Conn) flushPending() error {
	if c.fw.pending == 0 && len(c.fw.spans) == 0 {
		return nil
	}
	c.armWrite()
	return c.fw.flush()
}

// writeFrame stages one length-prefixed frame whose payload is the
// concatenation of head and tail (either may be empty). head is copied
// into the staging buffer; a tail of borrowMin or more rides as its own
// write vector straight from the caller's buffer, never memcpy'd, at the
// cost of an immediate flush (the caller owns tail again when we
// return). flush=false leaves small frames pending (corked packet
// traffic) until corkBytes are pending.
func (c *Conn) writeFrame(head, tail []byte, flush bool) error {
	n := len(head) + len(tail)
	if n > MaxFrame {
		return fmt.Errorf("proto: frame of %d bytes exceeds max %d", n, MaxFrame)
	}
	binary.BigEndian.PutUint32(c.whdr[:], uint32(n))
	c.fw.stageBytes(c.whdr[:])
	c.fw.stageBytes(head)
	borrowed := len(tail) >= borrowMin
	if borrowed {
		c.fw.borrow(tail)
	} else {
		c.fw.stageBytes(tail)
	}
	if m := c.metrics; m != nil {
		m.FramesOut.Inc()
		m.BytesOut.Add(int64(4 + n))
	}
	if !flush && !borrowed && c.fw.pending < corkBytes {
		if m := c.metrics; m != nil {
			m.CorkedFrames.Inc()
		}
		return nil
	}
	if m := c.metrics; m != nil {
		m.Flushes.Inc()
	}
	return c.flushPending()
}

// readBody scatter-fills dst with the current frame's body: buffered
// bytes drain first, then large remainders read straight from the
// underlying stream into dst (one copy, no bufio detour). EOF after the
// frame prefix is torn-frame corruption, surfaced as ErrUnexpectedEOF
// once any body byte arrived (matching io.ReadFull).
func (c *Conn) readBody(dst []byte) error {
	got := 0
	for got < len(dst) {
		if b := c.r.Buffered(); b > 0 {
			m := len(dst) - got
			if m > b {
				m = b
			}
			k, err := c.r.Read(dst[got : got+m])
			got += k
			if err != nil {
				return err
			}
			continue
		}
		rest := dst[got:]
		if len(rest) >= directReadMin {
			k, err := c.raw.Read(rest)
			got += k
			if err != nil {
				if err == io.EOF && got > 0 {
					err = io.ErrUnexpectedEOF
				}
				return err
			}
			continue
		}
		k, err := io.ReadFull(c.r, rest)
		got += k
		if err != nil {
			if err == io.EOF && got > 0 {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// readFrame reads one length-prefixed frame into a pooled buffer. The
// caller owns the returned buffer and must hand it back via
// bufpool.Put (or transfer it into a Packet, whose Release does so).
func (c *Conn) readFrame() (*[]byte, error) {
	c.armRead()
	if _, err := io.ReadFull(c.r, c.rhdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(c.rhdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("proto: incoming frame of %d bytes exceeds max %d", n, MaxFrame)
	}
	fr := bufpool.Get(int(n))
	if err := c.readBody(*fr); err != nil {
		bufpool.Put(fr)
		return nil, err
	}
	if m := c.metrics; m != nil {
		m.FramesIn.Inc()
		m.BytesIn.Add(int64(4 + n))
	}
	return fr, nil
}

// --- primitive append/consume helpers ---

func appendString(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

func consumeString(src []byte) (string, []byte, error) {
	if len(src) < 2 {
		return "", nil, io.ErrUnexpectedEOF
	}
	n := int(binary.BigEndian.Uint16(src))
	src = src[2:]
	if len(src) < n {
		return "", nil, io.ErrUnexpectedEOF
	}
	return string(src[:n]), src[n:], nil
}

func appendBlock(dst []byte, b block.Block) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(b.ID))
	dst = binary.BigEndian.AppendUint64(dst, uint64(b.Gen))
	dst = binary.BigEndian.AppendUint64(dst, uint64(b.NumBytes))
	return dst
}

func consumeBlock(src []byte) (block.Block, []byte, error) {
	if len(src) < 24 {
		return block.Block{}, nil, io.ErrUnexpectedEOF
	}
	b := block.Block{
		ID:       block.ID(binary.BigEndian.Uint64(src)),
		Gen:      block.GenStamp(binary.BigEndian.Uint64(src[8:])),
		NumBytes: int64(binary.BigEndian.Uint64(src[16:])),
	}
	return b, src[24:], nil
}

func appendDatanode(dst []byte, d block.DatanodeInfo) []byte {
	dst = appendString(dst, d.Name)
	dst = appendString(dst, d.Addr)
	return appendString(dst, d.Rack)
}

func consumeDatanode(src []byte) (block.DatanodeInfo, []byte, error) {
	var d block.DatanodeInfo
	var err error
	if d.Name, src, err = consumeString(src); err != nil {
		return d, nil, err
	}
	if d.Addr, src, err = consumeString(src); err != nil {
		return d, nil, err
	}
	if d.Rack, src, err = consumeString(src); err != nil {
		return d, nil, err
	}
	return d, src, nil
}

// --- operation headers ---

// WriteHeader sends an operation header frame: version, op, payload.
// Headers always flush — they open a pipeline and the peer is waiting.
func (c *Conn) WriteHeader(op Op, h any) error {
	// Pre-size the encode scratch so headers with long target lists never
	// grow mid-append; the buffer itself is pooled.
	need := 2 + 24 + 2 + 8 + 2 + 16
	if wh, ok := h.(*WriteBlockHeader); ok {
		need += len(wh.Client)
		for _, t := range wh.Targets {
			need += 6 + len(t.Name) + len(t.Addr) + len(t.Rack)
		}
	}
	bp := bufpool.GetCap(need)
	defer bufpool.Put(bp)
	buf := append(*bp, Version, byte(op))
	switch op {
	case OpWriteBlock:
		wh, ok := h.(*WriteBlockHeader)
		if !ok {
			return fmt.Errorf("proto: WriteHeader(%v) needs *WriteBlockHeader, got %T", op, h)
		}
		buf = appendBlock(buf, wh.Block)
		buf = append(buf, byte(wh.Mode), wh.Depth)
		buf = binary.BigEndian.AppendUint64(buf, uint64(wh.BlockBytes))
		buf = appendString(buf, wh.Client)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(wh.Targets)))
		for _, t := range wh.Targets {
			buf = appendDatanode(buf, t)
		}
	case OpReadBlock:
		rh, ok := h.(*ReadBlockHeader)
		if !ok {
			return fmt.Errorf("proto: WriteHeader(%v) needs *ReadBlockHeader, got %T", op, h)
		}
		buf = appendBlock(buf, rh.Block)
		buf = binary.BigEndian.AppendUint64(buf, uint64(rh.Offset))
		buf = binary.BigEndian.AppendUint64(buf, uint64(rh.Length))
	default:
		return fmt.Errorf("proto: unknown op %v", op)
	}
	*bp = buf
	return c.writeFrame(buf, nil, true)
}

// ReadHeader reads an operation header frame and returns the op plus the
// decoded header (*WriteBlockHeader or *ReadBlockHeader).
func (c *Conn) ReadHeader() (Op, any, error) {
	fr, err := c.readFrame()
	if err != nil {
		return 0, nil, err
	}
	defer bufpool.Put(fr)
	buf := *fr
	if len(buf) < 2 {
		return 0, nil, io.ErrUnexpectedEOF
	}
	if buf[0] != Version {
		return 0, nil, fmt.Errorf("proto: version %d, want %d", buf[0], Version)
	}
	op := Op(buf[1])
	rest := buf[2:]
	switch op {
	case OpWriteBlock:
		var wh WriteBlockHeader
		if wh.Block, rest, err = consumeBlock(rest); err != nil {
			return op, nil, err
		}
		if len(rest) < 10 {
			return op, nil, io.ErrUnexpectedEOF
		}
		wh.Mode = WriteMode(rest[0])
		wh.Depth = rest[1]
		wh.BlockBytes = int64(binary.BigEndian.Uint64(rest[2:]))
		rest = rest[10:]
		if wh.BlockBytes < 0 {
			return op, nil, fmt.Errorf("proto: negative block size hint %d", wh.BlockBytes)
		}
		if wh.Client, rest, err = consumeString(rest); err != nil {
			return op, nil, err
		}
		if len(rest) < 2 {
			return op, nil, io.ErrUnexpectedEOF
		}
		n := int(binary.BigEndian.Uint16(rest))
		rest = rest[2:]
		wh.Targets = make([]block.DatanodeInfo, n)
		for i := 0; i < n; i++ {
			if wh.Targets[i], rest, err = consumeDatanode(rest); err != nil {
				return op, nil, err
			}
		}
		return op, &wh, nil
	case OpReadBlock:
		var rh ReadBlockHeader
		if rh.Block, rest, err = consumeBlock(rest); err != nil {
			return op, nil, err
		}
		if len(rest) < 16 {
			return op, nil, io.ErrUnexpectedEOF
		}
		rh.Offset = int64(binary.BigEndian.Uint64(rest))
		rh.Length = int64(binary.BigEndian.Uint64(rest[8:]))
		return op, &rh, nil
	default:
		return op, nil, fmt.Errorf("proto: unknown op byte 0x%02x", byte(op))
	}
}

// --- packets ---

// WritePacket frames and sends a data packet. Only the packet header and
// checksums pass through a (pooled) scratch buffer; p.Data rides as its
// own write vector, so the payload is never copied into a frame — one
// writev moves header, checksums, and payload together on streams with
// gather support. When both RawSums and Sums are set, RawSums wins — a
// forwarding datanode re-emits the wire bytes it received without
// re-encoding. The frame is flushed unless the Conn is corked; a Last
// packet always flushes (the peer is about to commit the block on it),
// and so does any packet whose payload is borrowed rather than staged.
func (c *Conn) WritePacket(p *Packet) error {
	sumBytes := len(p.RawSums)
	nSums := sumBytes / checksum.BytesPerChecksum
	if p.RawSums == nil {
		nSums = len(p.Sums)
		sumBytes = nSums * checksum.BytesPerChecksum
	}
	bp := bufpool.GetCap(25 + sumBytes)
	defer bufpool.Put(bp)
	buf := *bp
	buf = binary.BigEndian.AppendUint64(buf, uint64(p.Seqno))
	buf = binary.BigEndian.AppendUint64(buf, uint64(p.Offset))
	var flags byte
	if p.Last {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = binary.BigEndian.AppendUint32(buf, uint32(nSums))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(p.Data)))
	if p.RawSums != nil {
		buf = append(buf, p.RawSums...)
	} else {
		buf = checksum.Encode(buf, p.Sums)
	}
	*bp = buf
	return c.writeFrame(buf, p.Data, !c.corked || p.Last)
}

// ReadPacket reads one data packet into a pooled Packet whose Data and
// RawSums alias a pooled frame buffer. The caller owns the packet and
// must Release it exactly once; see the Packet ownership contract.
// Checksums are not decoded — verify with checksum.VerifyEncoded
// against RawSums, or decode explicitly with DecodedSums.
func (c *Conn) ReadPacket() (*Packet, error) {
	fr, err := c.readFrame()
	if err != nil {
		return nil, err
	}
	buf := *fr
	if len(buf) < 25 {
		bufpool.Put(fr)
		return nil, io.ErrUnexpectedEOF
	}
	nSums := int(binary.BigEndian.Uint32(buf[17:]))
	nData := int(binary.BigEndian.Uint32(buf[21:]))
	rest := buf[25:]
	sumBytes := nSums * checksum.BytesPerChecksum
	if nSums > MaxFrame/checksum.BytesPerChecksum || len(rest) != sumBytes+nData {
		bufpool.Put(fr)
		return nil, fmt.Errorf("proto: packet body %d bytes, want %d sums + %d data", len(rest), nSums, nData)
	}
	p := packetPool.Get().(*Packet)
	*p = Packet{
		Seqno:   int64(binary.BigEndian.Uint64(buf)),
		Offset:  int64(binary.BigEndian.Uint64(buf[8:])),
		Last:    buf[16]&1 != 0,
		RawSums: rest[:sumBytes],
		Data:    rest[sumBytes:],
		frame:   fr,
		pooled:  true,
	}
	return p, nil
}

// --- acks ---

// WriteAck frames and sends a pipeline ack. Acks always flush: they are
// the latency-critical reverse traffic (per-packet acks and the FNFA)
// that corked data must never delay.
func (c *Conn) WriteAck(a *Ack) error {
	bp := bufpool.GetCap(11 + len(a.Statuses))
	defer bufpool.Put(bp)
	buf := *bp
	buf = append(buf, byte(a.Kind))
	buf = binary.BigEndian.AppendUint64(buf, uint64(a.Seqno))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(a.Statuses)))
	for _, s := range a.Statuses {
		buf = append(buf, byte(s))
	}
	*bp = buf
	return c.writeFrame(buf, nil, true)
}

// ReadAck reads one pipeline ack. The returned *Ack is owned by the
// Conn and valid only until the next ReadAck on this Conn; callers that
// retain it (or its Statuses) must copy.
func (c *Conn) ReadAck() (*Ack, error) {
	fr, err := c.readFrame()
	if err != nil {
		return nil, err
	}
	defer bufpool.Put(fr)
	buf := *fr
	if len(buf) < 11 {
		return nil, io.ErrUnexpectedEOF
	}
	n := int(binary.BigEndian.Uint16(buf[9:]))
	if len(buf) != 11+n {
		return nil, fmt.Errorf("proto: ack body %d bytes, want %d statuses", len(buf)-11, n)
	}
	if cap(c.ackStatuses) < n {
		c.ackStatuses = make([]Status, n)
	}
	sts := c.ackStatuses[:n]
	for i := 0; i < n; i++ {
		sts[i] = Status(buf[11+i])
	}
	c.ack = Ack{
		Kind:     AckKind(buf[0]),
		Seqno:    int64(binary.BigEndian.Uint64(buf[1:])),
		Statuses: sts,
	}
	return &c.ack, nil
}
