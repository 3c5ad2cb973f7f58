package client

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/nnapi"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/proto"
	"repro/internal/writesched"
)

// schedWriter adapts the client's RPC and pipeline machinery to the
// writesched engine. Both CreateHDFS and CreateSmarth return one of
// these; they differ only in engine configuration (pipeline cap and
// heartbeat cadence). Every protocol decision — launch order, exclude
// sets, Algorithm 2, the recovery loop — lives in internal/writesched;
// this file only executes effects and feeds their outcomes back:
//
//   - Namenode RPCs (addBlock, recoverBlock, complete, heartbeats) run
//     on a single FIFO worker goroutine, so the engine's effect order
//     (e.g. heartbeat-before-next-addBlock) is preserved on the wire.
//   - Each StartPipeline spawns one goroutine that owns that pipeline's
//     I/O: open, stream, FNFA wait, ack drain.
//   - The producer (Write/Close) blocks in submitBlock until the engine
//     emits Ready for the staged block: at FNFA for SMARTH, at full
//     commit for HDFS — exactly the legacy writers' pacing.
type schedWriter struct {
	statsTracker
	c            *Client
	path         string
	opts         WriteOptions
	to           Timeouts
	maxPipelines int
	opened       time.Time
	span         *obs.Span // root "write" span; nil when tracing is off
	eng          *writesched.Engine

	// Producer-goroutine state (the usual single-caller io.Writer rule).
	buf     []byte
	nextIdx int
	closed  bool
	werr    error

	mu   sync.Mutex
	cond *sync.Cond
	// readyIdx is the highest block index the engine has Ready'd (-1
	// before the first); fileDone/fileErr hold the terminal outcome.
	readyIdx int
	fileDone bool
	fileErr  error
	// active holds pipelines whose acks are still draining.
	active map[*pipelineConn]bool
	// Per-in-flight-block state, keyed by block index and dropped at
	// commit: staging payload, trace spans, launch time, last failure.
	data      map[int][]byte
	spans     map[int]*obs.Span
	recSpans  map[int]*obs.Span
	launched  map[int]time.Time
	lastCause map[int]error
	// free recycles SMARTH staging buffers (bounded by the pipeline cap).
	free [][]byte

	// FIFO namenode-RPC queue, drained by one worker goroutine: each op
	// is one plain RPC (plus its outcome handling), run in enqueue order
	// so a heartbeat queued before an addBlock reaches the namenode first.
	nnq    []func()
	nnStop bool
	wg     sync.WaitGroup
}

// newSchedWriter builds the writer, its engine, and the RPC worker.
// pol is the write's resolved policy instance (nil means default).
func (c *Client) newSchedWriter(path string, opts WriteOptions, pol policy.Policy, maxPipelines int, protocolHeartbeats bool) *schedWriter {
	w := &schedWriter{
		c:            c,
		path:         path,
		opts:         opts,
		to:           c.resolveTimeouts(opts),
		maxPipelines: maxPipelines,
		opened:       c.clk.Now(),
		readyIdx:     -1,
		active:       make(map[*pipelineConn]bool),
		data:         make(map[int][]byte),
		spans:        make(map[int]*obs.Span),
		recSpans:     make(map[int]*obs.Span),
		launched:     make(map[int]time.Time),
		lastCause:    make(map[int]error),
	}
	w.cond = sync.NewCond(&w.mu)
	if pol == nil {
		pol, _ = policy.New(policy.Default)
	}
	w.span = c.obs.StartSpan("write", nil)
	w.span.SetAttr("path", path)
	w.span.SetAttr("mode", strings.ToLower(opts.Mode.String()))
	w.span.SetAttr("policy", pol.Name())
	seed := opts.Seed
	if seed == 0 {
		c.mu.Lock()
		seed = c.rng.Int63()
		c.mu.Unlock()
	}
	w.eng = writesched.New(writesched.Config{
		Path:               path,
		Mode:               opts.Mode,
		Replication:        opts.Replication,
		MaxPipelines:       maxPipelines,
		DisableLocalOpt:    opts.DisableLocalOpt,
		ProtocolHeartbeats: protocolHeartbeats,
		StrictRetire:       opts.StrictRetire,
		Seed:               seed,
		SpeedOverride:      opts.SpeedOverride,
		Log:                opts.SchedLog,
		Policy:             pol,
	}, w)
	w.wg.Add(1)
	go w.nnWorker()
	return w
}

// --- producer side ---

func (w *schedWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, errors.New("client: write to closed file")
	}
	if w.werr != nil {
		return 0, w.werr
	}
	if cap(w.buf) == 0 && w.opts.BlockSize > 0 {
		// Preallocate the staging buffer: growing to BlockSize through
		// append's large-slice policy (~1.25x steps) allocates several
		// times the block size in dead intermediates per writer.
		w.buf = make([]byte, 0, w.opts.BlockSize+int64(len(p)))
	}
	w.buf = append(w.buf, p...)
	w.addBytes(len(p))
	for int64(len(w.buf)) >= w.opts.BlockSize {
		bs := int(w.opts.BlockSize)
		if err := w.submitBlock(w.buf[:bs]); err != nil {
			w.werr = err
			return 0, err
		}
		// Compact rather than re-slice: w.buf = w.buf[bs:] would keep
		// the consumed prefix live (the slice still pins the whole
		// backing array) and grow a fresh array on every block.
		rem := copy(w.buf, w.buf[bs:])
		w.buf = w.buf[:rem]
	}
	return len(p), nil
}

func (w *schedWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	err := w.finish()
	if err != nil {
		w.span.Fail(err)
	}
	w.span.End()
	return err
}

// submitBlock hands one block's payload to the engine and blocks until
// the engine no longer needs the producer held back (its Ready event),
// or the file fails.
func (w *schedWriter) submitBlock(payload []byte) error {
	idx := w.nextIdx
	w.nextIdx++
	data := payload
	if w.opts.Mode == proto.ModeSmarth {
		// SMARTH pipelines keep draining acks (and may re-stream during
		// recovery) after Ready releases the producer, so the payload is
		// staged in a recycled buffer that outlives this call. HDFS's
		// Ready comes only at commit, so its payload streams straight
		// out of w.buf with no copy — the legacy zero-copy path.
		data = w.getBlockBuf()[:len(payload)]
		copy(data, payload)
	}
	w.mu.Lock()
	w.data[idx] = data
	w.mu.Unlock()
	w.eng.Offer(int64(len(data)))
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.readyIdx < idx && !w.fileDone {
		w.cond.Wait()
	}
	if w.fileDone && w.fileErr != nil {
		return w.fileErr
	}
	return nil
}

// finish flushes the tail block, lets the engine drain and complete the
// file, and tears everything down on failure.
func (w *schedWriter) finish() error {
	err := w.werr
	if err == nil && len(w.buf) > 0 {
		err = w.submitBlock(w.buf)
		w.buf = nil
	}
	if err == nil {
		w.eng.CloseFile()
		w.mu.Lock()
		for !w.fileDone {
			w.cond.Wait()
		}
		err = w.fileErr
		w.mu.Unlock()
	}
	w.stopWorker()
	if err != nil {
		w.werr = err
		w.teardown(err)
		return err
	}
	w.setDuration(w.c.clk.Now().Sub(w.opened))
	return nil
}

// Stats snapshots progress, including the live pipeline count.
func (w *schedWriter) Stats() WriteStats {
	st := w.statsTracker.Stats()
	w.mu.Lock()
	st.ActivePipelines = len(w.active)
	w.mu.Unlock()
	return st
}

// teardown closes and unregisters every still-active pipeline and fails
// any open block/recovery spans, so no goroutine, connection, or span
// outlives a failed Close.
func (w *schedWriter) teardown(cause error) {
	w.mu.Lock()
	ps := make([]*pipelineConn, 0, len(w.active))
	for p := range w.active {
		ps = append(ps, p)
	}
	var open []*obs.Span
	for idx, sp := range w.recSpans {
		open = append(open, sp)
		delete(w.recSpans, idx)
	}
	for idx, sp := range w.spans {
		open = append(open, sp)
		delete(w.spans, idx)
	}
	w.mu.Unlock()
	for _, p := range ps {
		p.close()
		w.unregister(p)
	}
	for _, sp := range open {
		sp.Fail(cause)
		sp.End()
	}
}

// --- staging buffers (SMARTH only) ---

// getBlockBuf returns a BlockSize-capacity staging buffer, reusing a
// committed pipeline's buffer when one is free.
func (w *schedWriter) getBlockBuf() []byte {
	w.mu.Lock()
	if n := len(w.free); n > 0 {
		b := w.free[n-1]
		w.free = w.free[:n-1]
		w.mu.Unlock()
		return b
	}
	w.mu.Unlock()
	return make([]byte, w.opts.BlockSize)
}

// putBlockBuf returns a staging buffer to the free list, bounded by the
// pipeline cap so steady state stages maxPipelines+1 buffers total.
func (w *schedWriter) putBlockBuf(b []byte) {
	if int64(cap(b)) < w.opts.BlockSize {
		return
	}
	b = b[:cap(b)]
	w.mu.Lock()
	if len(w.free) <= w.maxPipelines {
		w.free = append(w.free, b)
	}
	w.mu.Unlock()
}

// --- namenode RPC worker ---

func (w *schedWriter) enqueueNN(op func()) {
	w.mu.Lock()
	w.nnq = append(w.nnq, op)
	w.cond.Broadcast()
	w.mu.Unlock()
}

// nnWorker runs the queued ops one at a time in FIFO order. Stopping
// discards any queued work — the writer stops it only after the
// engine's FileDone, when at most a trailing heartbeat can remain.
func (w *schedWriter) nnWorker() {
	defer w.wg.Done()
	for {
		w.mu.Lock()
		for len(w.nnq) == 0 && !w.nnStop {
			w.cond.Wait()
		}
		if w.nnStop {
			w.mu.Unlock()
			return
		}
		op := w.nnq[0]
		w.nnq = w.nnq[1:]
		w.mu.Unlock()
		op()
	}
}

func (w *schedWriter) stopWorker() {
	w.mu.Lock()
	w.nnStop = true
	w.cond.Broadcast()
	w.mu.Unlock()
	w.wg.Wait()
}

// --- writesched.Substrate ---

// AddBlock asks the namenode for the next block on the RPC worker. A
// placement failure is wrapped in writesched.ErrNoTargets so the engine
// can wait for a pipeline retirement and retry.
func (w *schedWriter) AddBlock(idx int, exclude []string, prev block.Block) {
	w.enqueueNN(func() {
		resp, err := w.c.addBlock(nnapi.AddBlockReq{
			Path: w.path, Mode: w.opts.Mode, Exclude: exclude, Previous: prev, Policy: w.opts.Policy,
		})
		if err != nil && strings.Contains(err.Error(), "no available datanodes") {
			err = fmt.Errorf("%w: %v", writesched.ErrNoTargets, err)
		}
		w.eng.HandleAddBlock(idx, resp.Located, err)
	})
}

// RecoverBlock issues one Algorithm 3 re-provisioning RPC. The first
// attempt opens the block's recovery episode: stats, metrics, and a
// "recovery" trace span under the block span.
func (w *schedWriter) RecoverBlock(idx, attempt int, blk block.Block, alive, exclude []string) {
	if attempt == 1 {
		w.recovered()
		w.c.mRecoveries.Inc()
		w.mu.Lock()
		cause := w.lastCause[idx]
		parent := w.spans[idx]
		w.mu.Unlock()
		span := w.c.obs.StartSpan("recovery", parent)
		span.SetAttr("block", fmt.Sprint(blk))
		if cause != nil {
			span.SetAttr("cause", cause.Error())
		}
		w.mu.Lock()
		w.recSpans[idx] = span
		w.mu.Unlock()
		w.c.opts.Logf("client %s: recovering pipeline for %v: %v", w.c.opts.Name, blk, cause)
	}
	w.enqueueNN(func() {
		resp, err := w.c.recoverBlock(nnapi.RecoverBlockReq{
			Path: w.path, Block: blk, Alive: alive, Exclude: exclude, Mode: w.opts.Mode,
			Policy: w.opts.Policy,
		})
		if err == nil {
			w.mu.Lock()
			sp := w.recSpans[idx]
			w.mu.Unlock()
			sp.Event("rebuilt", strings.Join(resp.Located.Names(), ">"))
		}
		w.eng.HandleRecovered(idx, resp.Located, err)
	})
}

func (w *schedWriter) Complete() {
	w.enqueueNN(func() { w.eng.HandleCompleteDone(w.c.completeFile(w.path)) })
}

// Heartbeat queues a speed-table push. SendHeartbeat snapshots the
// recorder when the worker runs it, so the push carries every
// measurement taken while the op sat queued.
func (w *schedWriter) Heartbeat() { w.enqueueNN(w.c.SendHeartbeat) }

func (w *schedWriter) RecordSpeed(dn string, bytes int64, elapsed time.Duration) {
	w.c.recorder.Record(dn, bytes, elapsed)
}

func (w *schedWriter) SpeedOf(dn string) float64 { return w.c.recorder.Speed(dn) }

func (w *schedWriter) Ready(idx int) {
	w.mu.Lock()
	if idx > w.readyIdx {
		w.readyIdx = idx
	}
	w.cond.Broadcast()
	w.mu.Unlock()
}

func (w *schedWriter) BlockCommitted(idx int) {
	w.mu.Lock()
	data := w.data[idx]
	delete(w.data, idx)
	sp := w.spans[idx]
	delete(w.spans, idx)
	rsp := w.recSpans[idx]
	delete(w.recSpans, idx)
	start, launched := w.launched[idx]
	delete(w.launched, idx)
	delete(w.lastCause, idx)
	w.mu.Unlock()
	if w.opts.Mode == proto.ModeSmarth && data != nil {
		w.putBlockBuf(data)
	}
	if launched {
		w.c.mBlockCommit.ObserveSince(start, w.c.clk.Now())
	}
	rsp.End()
	sp.End()
}

func (w *schedWriter) FileDone(err error) {
	w.mu.Lock()
	w.fileDone = true
	w.fileErr = err
	w.cond.Broadcast()
	w.mu.Unlock()
}

// StartPipeline launches block idx's pipeline I/O on its own goroutine.
// The initial launch opens the block's trace span and stamps its launch
// time; a recovery re-stream reuses them.
func (w *schedWriter) StartPipeline(idx int, lb block.LocatedBlock, restream bool) {
	if !restream {
		w.blockLaunched()
		span := w.c.obs.StartSpan("block", w.span)
		span.SetAttr("block", fmt.Sprint(lb.Block))
		w.mu.Lock()
		w.spans[idx] = span
		w.launched[idx] = w.c.clk.Now()
		w.mu.Unlock()
	}
	go w.runPipeline(idx, lb, restream)
}

// runPipeline owns one pipeline attempt end to end: open, stream, FNFA
// wait (initial SMARTH launches only), ack drain. Outcomes go to the
// engine; the engine decides what happens next.
func (w *schedWriter) runPipeline(idx int, lb block.LocatedBlock, restream bool) {
	w.mu.Lock()
	data := w.data[idx]
	blockSpan := w.spans[idx]
	parent := blockSpan
	if restream {
		if rsp := w.recSpans[idx]; rsp != nil {
			parent = rsp
		}
	}
	w.mu.Unlock()

	fail := func(err error) {
		w.mu.Lock()
		w.lastCause[idx] = err
		w.mu.Unlock()
		blockSpan.Event("pipeline_failed", err.Error())
		bad := -1
		var pe *pipelineError
		if errors.As(err, &pe) {
			bad = pe.badIndex
		}
		w.eng.HandleFailed(idx, writesched.PipelineFailure{BadIndex: bad, Cause: err})
	}

	p, err := w.c.openPipeline(lb, &w.opts, w.to, parent)
	if err != nil {
		fail(err)
		return
	}
	w.register(p)
	start := w.c.clk.Now()
	if err := w.c.streamBlock(p, data, &w.opts); err != nil {
		// Unblock the responder (it is reading acks from a dead conn).
		p.close()
		<-p.done
		w.unregister(p)
		fail(err)
		return
	}
	if w.opts.Mode == proto.ModeSmarth && !restream {
		if err := p.waitFNFA(w.c.clk, w.to.FNFA); err != nil {
			p.close()
			w.unregister(p)
			fail(err)
			return
		}
		w.c.mFNFA.ObserveSince(start, w.c.clk.Now())
		// The engine records the client→first-datanode speed (the
		// measurement powering Algorithms 1 and 2) and heartbeats it.
		w.eng.HandleFNFA(idx, w.c.clk.Now().Sub(start))
	}
	err = p.waitDone()
	p.close()
	w.unregister(p)
	if err != nil {
		fail(err)
		return
	}
	w.eng.HandleDrained(idx)
}

func (w *schedWriter) register(p *pipelineConn) {
	w.mu.Lock()
	w.active[p] = true
	n := len(w.active)
	w.mu.Unlock()
	w.notePipelines(n)
}

func (w *schedWriter) unregister(p *pipelineConn) {
	w.mu.Lock()
	delete(w.active, p)
	w.mu.Unlock()
}
