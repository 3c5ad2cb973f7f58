package client

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/checksum"
	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/transport"
)

// pipelineError describes a failed pipeline with, when known, the index
// of the datanode that reported the failure (pipeline order, 0 = first).
type pipelineError struct {
	lb       block.LocatedBlock
	badIndex int // -1 when the culprit is unknown
	cause    error
}

func (e *pipelineError) Error() string {
	return fmt.Sprintf("pipeline %v (targets %v, bad index %d): %v",
		e.lb.Block, e.lb.Names(), e.badIndex, e.cause)
}

func (e *pipelineError) Unwrap() error { return e.cause }

// pipelineConn is one open write pipeline: the connection to the first
// datanode, plus the PacketResponder state (the ack-reading goroutine and
// its completion channels).
type pipelineConn struct {
	lb   block.LocatedBlock
	mode proto.WriteMode
	pc   *proto.Conn // packets out; header ack, acks and FNFA back

	// fnfa closes when the FIRST NODE FINISH ACK arrives (or, as a
	// degenerate upper bound, when every ack arrived).
	fnfa     chan struct{}
	fnfaOnce sync.Once

	// done receives exactly one value: nil after the last packet is
	// fully acknowledged by every datanode, or the pipeline error.
	done chan error

	// span traces this pipeline (nil when tracing is off). After a
	// successful open it is owned by the responder goroutine, which ends
	// it when the pipeline resolves.
	span *obs.Span
	// rtt, when non-nil, receives client→first-DN packet round trips.
	// sendNS stamps each packet's send time (nanoseconds on the client's
	// clock), indexed by seqno; guarded by mu.
	rtt    *obs.Histogram
	clk    clock.Clock
	sendNS []int64

	mu        sync.Mutex
	lastSeqno int64 // seqno of the final packet; -1 until known
}

func (p *pipelineConn) setLastSeqno(s int64) {
	p.mu.Lock()
	p.lastSeqno = s
	p.mu.Unlock()
}

func (p *pipelineConn) getLastSeqno() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lastSeqno
}

func (p *pipelineConn) signalFNFA() {
	p.fnfaOnce.Do(func() { close(p.fnfa) })
}

// noteSend stamps packet seqno's send time for RTT attribution. No-op
// unless the pipeline has an RTT histogram attached.
func (p *pipelineConn) noteSend(seqno int64) {
	if p.rtt == nil || seqno < 0 {
		return
	}
	now := p.clk.Now().UnixNano()
	p.mu.Lock()
	for int64(len(p.sendNS)) <= seqno {
		p.sendNS = append(p.sendNS, 0)
	}
	p.sendNS[seqno] = now
	p.mu.Unlock()
}

// observeRTT records the round trip for an acked seqno, if its send time
// was stamped.
func (p *pipelineConn) observeRTT(seqno int64) {
	if p.rtt == nil || seqno < 0 {
		return
	}
	p.mu.Lock()
	var sent int64
	if seqno < int64(len(p.sendNS)) {
		sent = p.sendNS[seqno]
	}
	p.mu.Unlock()
	if sent > 0 {
		p.rtt.Observe(p.clk.Now().UnixNano() - sent)
	}
}

func (p *pipelineConn) close() { p.pc.Close() }

// openPipeline dials the first datanode, performs pipeline setup, and
// starts the responder goroutine. The timeouts bound the dial, the
// setup ack, and (for the pipeline's lifetime) per-operation data-path
// progress in both directions. parent, when tracing is on, becomes the
// new pipeline span's parent (normally the block span); a setup failure
// ends the span with an error status before returning.
func (c *Client) openPipeline(lb block.LocatedBlock, opts *WriteOptions, to Timeouts, parent *obs.Span) (*pipelineConn, error) {
	span := c.obs.StartSpan("pipeline", parent)
	span.SetAttr("targets", strings.Join(lb.Names(), ">"))
	fail := func(e *pipelineError) (*pipelineConn, error) {
		span.Fail(e)
		span.End()
		return nil, e
	}
	if len(lb.Targets) == 0 {
		return fail(&pipelineError{lb: lb, badIndex: -1, cause: errors.New("no targets")})
	}
	hdr := &proto.WriteBlockHeader{
		Block:      lb.Block,
		Targets:    lb.Targets[1:],
		Client:     c.opts.Name,
		Mode:       opts.Mode,
		Depth:      0,
		BlockBytes: opts.BlockSize,
	}
	pc, setupAck, err := c.dialPipeline(lb.Targets[0].Addr, hdr, to)
	if err != nil {
		return fail(&pipelineError{lb: lb, badIndex: 0, cause: err})
	}
	if bad := setupAck.FirstBadIndex(); bad >= 0 {
		pc.Close()
		return fail(&pipelineError{lb: lb, badIndex: bad, cause: errors.New("pipeline setup refused")})
	}
	span.Event("setup_ack", "")

	p := &pipelineConn{
		lb:        lb,
		mode:      opts.Mode,
		pc:        pc,
		fnfa:      make(chan struct{}),
		done:      make(chan error, 1),
		span:      span,
		rtt:       c.mPacketRTT,
		clk:       c.clk,
		lastSeqno: -1,
	}
	go c.responderLoop(p)
	return p, nil
}

// dialPipeline opens the conn to the first datanode at addr, sends the
// write header, and reads the setup ack (conn-owned scratch: the caller
// inspects it before the next read on the conn).
func (c *Client) dialPipeline(addr string, hdr *proto.WriteBlockHeader, to Timeouts) (*proto.Conn, *proto.Ack, error) {
	conn, err := transport.DialTimeout(c.opts.Network, c.opts.Name, addr, to.Dial, c.clk)
	if err != nil {
		return nil, nil, err
	}
	pc := proto.NewConn(conn)
	pc.SetClock(c.clk)
	pc.SetWriteTimeout(to.AckProgress)
	pc.SetMetrics(c.connMetrics)
	if err := pc.WriteHeader(proto.OpWriteBlock, hdr); err != nil {
		pc.Close()
		return nil, nil, err
	}
	pc.SetReadTimeout(to.SetupAck)
	ack, err := pc.ReadAck()
	pc.SetReadTimeout(to.AckProgress)
	if err == nil && ack.Kind != proto.AckHeader {
		err = fmt.Errorf("unexpected %v ack during setup", ack.Kind)
	}
	if err != nil {
		pc.Close()
		return nil, nil, err
	}
	return pc, ack, nil
}

// responderLoop is the client-side PacketResponder: it consumes acks from
// the pipeline and resolves fnfa/done. It owns p.span: the span ends
// here, with an error status when the pipeline fails.
func (c *Client) responderLoop(p *pipelineConn) {
	finish := func(err error) {
		if err != nil {
			p.span.Fail(err)
		}
		p.span.End()
		p.done <- err
	}
	for {
		ack, err := p.pc.ReadAck()
		if err != nil {
			finish(&pipelineError{lb: p.lb, badIndex: -1, cause: err})
			return
		}
		switch ack.Kind {
		case proto.AckFNFA:
			p.span.Event("fnfa", "")
			p.signalFNFA()
		case proto.AckData:
			p.observeRTT(ack.Seqno)
			p.span.Packet("ack", ack.Seqno)
			if bad := ack.FirstBadIndex(); bad >= 0 {
				finish(&pipelineError{lb: p.lb, badIndex: bad, cause: fmt.Errorf("packet %d failed: %v", ack.Seqno, ack.Statuses)})
				return
			}
			if last := p.getLastSeqno(); last >= 0 && ack.Seqno == last {
				// Every datanode stored every packet: the block is fully
				// replicated, which upper-bounds the FNFA too.
				p.signalFNFA()
				finish(nil)
				return
			}
		default:
			finish(&pipelineError{lb: p.lb, badIndex: -1, cause: fmt.Errorf("unexpected %v ack", ack.Kind)})
			return
		}
	}
}

// streamBlock writes data as packets into the pipeline. It returns once
// every packet (plus the terminal empty packet, if data is empty) has
// been handed to the transport.
func (c *Client) streamBlock(p *pipelineConn, data []byte, opts *WriteOptions) error {
	packetSize := opts.PacketSize
	if packetSize <= 0 {
		packetSize = proto.DefaultPacketSize
	}
	numPackets := len(data) / packetSize
	if len(data)%packetSize != 0 || numPackets == 0 {
		numPackets++
	}
	p.setLastSeqno(int64(numPackets - 1))

	// One reused packet struct and checksum scratch for the whole block;
	// WritePacket retains neither. The stream is corked so small packets
	// coalesce (full-size payloads go straight out as write vectors) —
	// the conn's size threshold, the Last packet, and an explicit uncork
	// (for safety on early error returns) flush. Acks ride a separate
	// direction, so nothing waits on this buffer.
	_ = p.pc.SetCork(true)
	defer func() { _ = p.pc.SetCork(false) }()
	var pkt proto.Packet
	var sums []uint32
	var seqno int64
	for off := 0; off < len(data) || seqno == 0; {
		end := off + packetSize
		if end > len(data) {
			end = len(data)
		}
		payload := data[off:end]
		sums = checksum.AppendSums(sums[:0], payload, checksum.DefaultChunkSize)
		pkt = proto.Packet{
			Seqno:  seqno,
			Offset: int64(off),
			Last:   seqno == int64(numPackets-1),
			Sums:   sums,
			Data:   payload,
		}
		if err := p.pc.WritePacket(&pkt); err != nil {
			return &pipelineError{lb: p.lb, badIndex: 0, cause: err}
		}
		p.noteSend(seqno)
		p.span.Packet("send", seqno)
		seqno++
		if end == off { // empty block: single empty terminal packet sent
			break
		}
		off = end
	}
	return nil
}

// waitDone blocks until the pipeline's final ack (or failure).
func (p *pipelineConn) waitDone() error { return <-p.done }

// waitFNFA blocks until the first datanode finished storing the block, or
// the pipeline failed first, or (with timeout > 0) the FNFA budget ran
// out on clk. It reports pipeline failure via the done channel value
// re-queued for the caller's later waitDone; a timeout blames the first
// datanode, whose job it was to emit the FNFA.
func (p *pipelineConn) waitFNFA(clk clock.Clock, timeout time.Duration) error {
	var expired <-chan time.Time
	if timeout > 0 && clk != nil {
		expired = clk.After(timeout)
	}
	select {
	case <-p.fnfa:
		return nil
	case err := <-p.done:
		// done fired before FNFA: either an error, or (with nil) the
		// whole block was acknowledged, which implies FNFA. Re-queue the
		// value so waitDone still observes it.
		p.done <- err
		if err == nil {
			return nil
		}
		return err
	case <-expired:
		return &pipelineError{lb: p.lb, badIndex: 0,
			cause: fmt.Errorf("no FNFA within %v: %w", timeout, transport.ErrTimeout)}
	}
}
