// Package client implements the DFS client: file creation, the baseline
// HDFS stop-and-wait single-pipeline writer, the SMARTH asynchronous
// multi-pipeline writer (with Algorithm 2 local optimization and
// Algorithm 4 fault tolerance), block reads, and the heartbeat that
// reports observed transfer speeds to the namenode.
//
// Both writers are one adapter (schedwriter.go) around the shared
// write-scheduling engine in internal/writesched, which owns every
// protocol decision; this package supplies the effects — namenode RPCs,
// pipeline I/O, speed recording.
//
// Concurrency and ownership invariants:
//
//   - A Writer is single-caller: Write and Close must come from one
//     goroutine (the usual io.Writer contract). All cross-goroutine
//     state below is internal.
//   - Each open pipeline owns two goroutines: streamBlock, the only
//     writer on the data conn, and responderLoop, the only reader of
//     acks on it. The responder owns the pipeline's trace span and the
//     done channel — every exit path ends both exactly once.
//   - Namenode RPCs for one write run on a single FIFO worker
//     goroutine, one plain RPC per operation, preserving the engine's
//     effect order on the wire (a heartbeat queued before an addBlock
//     reaches the namenode first). Nothing is cached client-side:
//     every Open asks the namenode for block locations.
//   - A SMARTH block's staging buffer (checked out of a writer-local
//     free list) is owned from launch until the block commits; HDFS
//     streams straight from the producer's buffer (Ready-at-commit
//     keeps it stable).
//   - The speed recorder and the namenode RPC conn are mutex-guarded
//     and shared by all writers of the client; everything on the data
//     path is pipeline-local and lock-free (see DESIGN.md §7 for the
//     packet/ack ownership rules it relies on).
package client

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/nnapi"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/rpc"
	"repro/internal/transport"
	"repro/internal/writesched"
)

// Options configure a Client.
type Options struct {
	// Name identifies this client to the namenode and datanodes.
	Name string
	// NamenodeAddr is the namenode's RPC address.
	NamenodeAddr string
	// Network is the transport substrate.
	Network transport.Network
	// Clock defaults to the system clock.
	Clock clock.Clock
	// HeartbeatInterval defaults to core.HeartbeatInterval (3 s).
	HeartbeatInterval time.Duration
	// Seed drives the local-optimization randomness (0 = from clock).
	Seed int64
	// Timeouts bound the client's blocking points (dial, pipeline acks,
	// namenode RPCs). nil selects DefaultTimeouts(); point at
	// NoTimeouts() (or any zeroed fields) to restore the legacy
	// block-forever behavior.
	Timeouts *Timeouts
	// Obs, when set, receives the client's metrics (packet RTT, FNFA
	// latency, block commit time, RPC retries) and write-path trace
	// spans. nil disables observability at negligible cost.
	Obs *obs.Obs
	// Logf, when set, receives diagnostic messages.
	Logf func(format string, args ...any)
}

// WriteOptions configure one file write.
type WriteOptions struct {
	// Mode selects the protocol: proto.ModeHDFS (stop-and-wait baseline)
	// or proto.ModeSmarth (asynchronous multi-pipeline).
	Mode proto.WriteMode
	// Replication defaults to 3.
	Replication int
	// BlockSize defaults to 64 MB.
	BlockSize int64
	// PacketSize defaults to 64 KB.
	PacketSize int
	// Overwrite replaces an existing file.
	Overwrite bool
	// DisableLocalOpt turns off Algorithm 2 (ablation knob).
	DisableLocalOpt bool
	// MaxPipelines caps concurrent SMARTH pipelines; 0 means the paper's
	// rule, activeDatanodes / replication.
	MaxPipelines int
	// Timeouts overrides the client-level Timeouts for this write only;
	// nil inherits the client's setting.
	Timeouts *Timeouts
	// Seed fixes the write's Algorithm 2 swap randomness (0 = drawn from
	// the client's rng). The conformance harness pins it so live and
	// simulated runs make identical swap decisions.
	Seed int64
	// StrictRetire retires pipelines strictly in launch order (see
	// writesched.Config.StrictRetire) — the conformance mode.
	StrictRetire bool
	// SchedLog, when set, receives the write's protocol decision log.
	SchedLog *writesched.DecisionLog
	// SpeedOverride replaces measured FNFA speed samples with scripted
	// ones (conformance harness).
	SpeedOverride writesched.SpeedFunc
	// Policy names the write policy (internal/policy) governing this
	// file: placement, effective replication factor, and pipeline
	// ordering. "" means the default policy, which reproduces the
	// engine's historical behavior exactly. The name travels with every
	// namenode request for the write, so placement decisions on the
	// namenode and ordering decisions in the client's engine stay
	// consistent. Unknown names fail Create.
	Policy string
}

func (o *WriteOptions) applyDefaults() {
	if o.Replication <= 0 {
		o.Replication = 3
	}
	if o.BlockSize <= 0 {
		o.BlockSize = proto.DefaultBlockSize
	}
	if o.PacketSize <= 0 {
		o.PacketSize = proto.DefaultPacketSize
	}
}

// Client talks to one cluster.
type Client struct {
	opts     Options
	clk      clock.Clock
	timeouts Timeouts

	mu   sync.Mutex
	nn   *rpc.Client
	rng  *rand.Rand
	done bool

	recorder *core.Recorder

	// Observability handles, cached at construction so hot paths never
	// touch the registry. All are nil-safe: with Options.Obs unset every
	// field is nil and each call site degrades to a no-op.
	obs           *obs.Obs
	connMetrics   *obs.ConnMetrics
	mPacketRTT    *obs.Histogram // client→first-DN packet round trip
	mFNFA         *obs.Histogram // block launch → FIRST NODE FINISH ACK
	mBlockCommit  *obs.Histogram // block launch → all acks drained
	mRPC          *obs.Histogram // namenode RPC latency (client side)
	mRecoveries   *obs.Counter   // Algorithm 3/4 recovery episodes
	mRPCRetries   *obs.Counter   // namenode RPC attempts after the first
	mReadFill     *obs.Histogram // block-read wait for the next packet
	mBlocksRead   *obs.Counter   // block streams opened
	mReadHedges   *obs.Counter   // hedge replicas raced
	mReadFailover *obs.Counter   // replicas dropped mid-read

	stopCh chan struct{}
	wg     sync.WaitGroup
}

// New constructs a client and starts its heartbeat loop.
func New(opts Options) (*Client, error) {
	if opts.Name == "" || opts.NamenodeAddr == "" || opts.Network == nil {
		return nil, errors.New("client: Name, NamenodeAddr and Network are required")
	}
	if opts.Clock == nil {
		opts.Clock = clock.System
	}
	if opts.HeartbeatInterval <= 0 {
		opts.HeartbeatInterval = core.HeartbeatInterval
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	seed := opts.Seed
	if seed == 0 {
		seed = opts.Clock.Now().UnixNano()
	}
	timeouts := DefaultTimeouts()
	if opts.Timeouts != nil {
		timeouts = *opts.Timeouts
	}
	c := &Client{
		opts:     opts,
		clk:      opts.Clock,
		timeouts: timeouts,
		rng:      rand.New(rand.NewSource(seed)),
		recorder: core.NewRecorder(),
		obs:      opts.Obs,
		stopCh:   make(chan struct{}),
	}
	if opts.Obs != nil {
		comp := opts.Obs.Component("client/" + opts.Name)
		c.connMetrics = obs.NewConnMetrics(comp)
		c.mPacketRTT = comp.Histogram("packet_rtt_ns")
		c.mFNFA = comp.Histogram("fnfa_latency_ns")
		c.mBlockCommit = comp.Histogram("block_commit_ns")
		c.mRPC = comp.Histogram("rpc_call_ns")
		c.mRecoveries = comp.Counter("recoveries")
		c.mRPCRetries = comp.Counter("rpc_retries")
		c.mReadFill = comp.Histogram("read_fill_ns")
		c.mBlocksRead = comp.Counter("blocks_read")
		c.mReadHedges = comp.Counter("read_hedges")
		c.mReadFailover = comp.Counter("read_failovers")
	}
	c.wg.Add(1)
	go c.heartbeatLoop()
	return c, nil
}

// Name returns the client's identity.
func (c *Client) Name() string { return c.opts.Name }

// Recorder exposes the client's speed table (tests, tools).
func (c *Client) Recorder() *core.Recorder { return c.recorder }

// Close stops the heartbeat loop and drops the namenode connection.
func (c *Client) Close() {
	c.mu.Lock()
	if c.done {
		c.mu.Unlock()
		return
	}
	c.done = true
	nn := c.nn
	c.nn = nil
	c.mu.Unlock()
	close(c.stopCh)
	if nn != nil {
		nn.Close()
	}
	c.wg.Wait()
}

// heartbeatLoop pushes the speed table to the namenode every interval —
// the SMARTH client-side half of the global optimization.
func (c *Client) heartbeatLoop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.stopCh:
			return
		case <-c.clk.After(c.opts.HeartbeatInterval):
		}
		c.SendHeartbeat()
	}
}

// SendHeartbeat pushes the current speed table immediately and renews the
// client's write leases. The SMARTH writer also calls this after each
// block so fresh measurements reach the namenode promptly even in short
// tests; an empty speed table is still sent because the heartbeat doubles
// as the lease renewal.
func (c *Client) SendHeartbeat() {
	err := c.callNN(nnapi.MethodClientHeartbeat, nnapi.ClientHeartbeatReq{
		Client: c.opts.Name,
		Speeds: c.recorder.Snapshot(),
	}, &nnapi.ClientHeartbeatResp{})
	if err != nil {
		c.opts.Logf("client %s: heartbeat: %v", c.opts.Name, err)
	}
}

// --- namenode RPC plumbing ---

func (c *Client) nnClient() (*rpc.Client, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done {
		return nil, errors.New("client: closed")
	}
	if c.nn != nil {
		return c.nn, nil
	}
	conn, err := transport.DialTimeout(c.opts.Network, c.opts.Name, c.opts.NamenodeAddr, c.timeouts.Dial, c.clk)
	if err != nil {
		return nil, err
	}
	nn := rpc.NewClient(conn)
	c.nn = nn
	return nn, nil
}

// jitter spreads d to a uniform value in [d/2, 3d/2) so retrying clients
// desynchronize instead of hammering the namenode in lockstep.
func (c *Client) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return d/2 + time.Duration(c.rng.Int63n(int64(d)))
}

// callNN issues one namenode RPC with capped exponential backoff and
// jitter across transport-level failures. Remote errors (the server
// answered, and said no) are returned immediately — retrying those is
// the application's decision. Each attempt gets a fresh RPCCall budget;
// a timed-out attempt keeps the connection (a late response is simply
// discarded), while any other transport failure drops it so the next
// attempt redials.
func (c *Client) callNN(method string, arg, reply any) error {
	const maxAttempts = 4
	backoff := 50 * time.Millisecond
	const maxBackoff = time.Second
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			c.mRPCRetries.Inc()
			select {
			case <-c.stopCh:
				return lastErr
			case <-c.clk.After(c.jitter(backoff)):
			}
			backoff *= 2
			if backoff > maxBackoff {
				backoff = maxBackoff
			}
		}
		cl, err := c.nnClient()
		if err != nil {
			lastErr = err
			continue
		}
		var callStart time.Time
		if c.mRPC != nil {
			callStart = c.clk.Now()
		}
		err = cl.CallTimeout(method, arg, reply, c.timeouts.RPCCall, c.clk)
		if c.mRPC != nil {
			c.mRPC.ObserveSince(callStart, c.clk.Now())
		}
		if err == nil {
			return nil
		}
		var remote *rpc.RemoteError
		if errors.As(err, &remote) {
			return err
		}
		lastErr = err
		if !transport.IsTimeout(err) {
			c.mu.Lock()
			if c.nn == cl {
				c.nn = nil
			}
			c.mu.Unlock()
			cl.Close()
		}
	}
	return lastErr
}

// --- typed ClientProtocol wrappers ---

func (c *Client) createFile(path string, opts WriteOptions) error {
	return c.callNN(nnapi.MethodCreate, nnapi.CreateReq{
		Path:        path,
		Client:      c.opts.Name,
		Replication: opts.Replication,
		BlockSize:   opts.BlockSize,
		Overwrite:   opts.Overwrite,
		Policy:      opts.Policy,
	}, &nnapi.CreateResp{})
}

// addBlock allocates the file's next block. req.Previous is the last
// block this writer was granted; the namenode uses it to de-duplicate
// retried requests (callNN may retry an attempt the namenode already
// executed).
func (c *Client) addBlock(req nnapi.AddBlockReq) (nnapi.AddBlockResp, error) {
	req.Client = c.opts.Name
	var resp nnapi.AddBlockResp
	err := c.callNN(nnapi.MethodAddBlock, req, &resp)
	return resp, err
}

func (c *Client) recoverBlock(req nnapi.RecoverBlockReq) (nnapi.RecoverBlockResp, error) {
	req.Client = c.opts.Name
	var resp nnapi.RecoverBlockResp
	err := c.callNN(nnapi.MethodRecoverBlock, req, &resp)
	return resp, err
}

// completeFile polls the namenode until every block reaches minimal
// replication, backing off exponentially (10 ms doubling to a 500 ms
// cap) within a fixed overall budget instead of the old fixed-cadence
// 100×20 ms spin.
func (c *Client) completeFile(path string) error {
	const budget = 15 * time.Second
	start := c.clk.Now()
	backoff := 10 * time.Millisecond
	for {
		var resp nnapi.CompleteResp
		if err := c.callNN(nnapi.MethodComplete, nnapi.CompleteReq{Path: path, Client: c.opts.Name}, &resp); err != nil {
			return err
		}
		if resp.Done {
			return nil
		}
		if c.clk.Now().Sub(start) >= budget {
			return fmt.Errorf("client: complete %s: blocks not minimally replicated within %v", path, budget)
		}
		select {
		case <-c.stopCh:
			return errors.New("client: closed")
		case <-c.clk.After(backoff):
		}
		backoff *= 2
		if backoff > 500*time.Millisecond {
			backoff = 500 * time.Millisecond
		}
	}
}

func (c *Client) clusterInfo() (nnapi.ClusterInfoResp, error) {
	var resp nnapi.ClusterInfoResp
	err := c.callNN(nnapi.MethodClusterInfo, nnapi.ClusterInfoReq{}, &resp)
	return resp, err
}

// GetFileInfo returns file metadata.
func (c *Client) GetFileInfo(path string) (nnapi.GetFileInfoResp, error) {
	var resp nnapi.GetFileInfoResp
	err := c.callNN(nnapi.MethodGetFileInfo, nnapi.GetFileInfoReq{Path: path}, &resp)
	return resp, err
}

// getBlockLocations asks the namenode for a file's blocks and replica
// locations.
func (c *Client) getBlockLocations(path string) (nnapi.GetBlockLocationsResp, error) {
	var resp nnapi.GetBlockLocationsResp
	err := c.callNN(nnapi.MethodGetBlockLocations, nnapi.GetBlockLocationsReq{Path: path, Client: c.opts.Name}, &resp)
	return resp, err
}

// Delete removes a file; it reports whether the file existed.
func (c *Client) Delete(path string) (bool, error) {
	var resp nnapi.DeleteResp
	err := c.callNN(nnapi.MethodDelete, nnapi.DeleteReq{Path: path}, &resp)
	return resp.Deleted, err
}

// Rename moves a file; the destination must not exist.
func (c *Client) Rename(src, dst string) error {
	return c.callNN(nnapi.MethodRename, nnapi.RenameReq{Src: src, Dst: dst}, &nnapi.RenameResp{})
}

// List enumerates files under a path prefix ("" = everything), with
// replication health per file.
func (c *Client) List(prefix string) ([]nnapi.FileStatus, error) {
	var resp nnapi.ListResp
	err := c.callNN(nnapi.MethodList, nnapi.ListReq{Prefix: prefix}, &resp)
	return resp.Files, err
}

// Decommission starts (cancel=false) or cancels draining a datanode.
func (c *Client) Decommission(name string, cancel bool) error {
	return c.callNN(nnapi.MethodDecommission, nnapi.DecommissionReq{Name: name, Cancel: cancel}, &nnapi.DecommissionResp{})
}

// DecommissionStatus reports a drain's progress.
func (c *Client) DecommissionStatus(name string) (nnapi.DecommStatusResp, error) {
	var resp nnapi.DecommStatusResp
	err := c.callNN(nnapi.MethodDecommStatus, nnapi.DecommStatusReq{Name: name}, &resp)
	return resp, err
}

// Balance schedules one round of replica moves from over-full to
// under-full datanodes (copy-then-delete; redundancy never drops).
func (c *Client) Balance(threshold float64, maxMoves int) (nnapi.BalanceResp, error) {
	var resp nnapi.BalanceResp
	err := c.callNN(nnapi.MethodBalance, nnapi.BalanceReq{Threshold: threshold, MaxMoves: maxMoves}, &resp)
	return resp, err
}
