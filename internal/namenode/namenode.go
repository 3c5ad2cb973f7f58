// Package namenode implements the cluster's metadata server: the
// namespace (files and blocks), datanode liveness tracking, replica
// placement — delegated to the pluggable policy layer (internal/policy),
// whose default covers both HDFS's topology policy and SMARTH's
// Algorithm 1 global optimization — and the RPC surface defined in
// package nnapi.
//
// Concurrency: there is no global namesystem lock. The namespace is
// sharded by parent directory and the block manager striped by block ID
// (see namesystem.go); the datanode manager, replication manager, and
// balancer bookkeeping each have their own lock. The documented lock
// order is: namespace shard(s, by index) → one block stripe → datanode
// manager → replication manager → nn.mu (balancer/admin); locks are
// only ever acquired left-to-right along that order.
package namenode

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/nnapi"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/proto"
	"repro/internal/rpc"
	"repro/internal/transport"
)

// DefaultLeaseTimeout is how long an under-construction file survives
// without any sign of life from its writer before the namenode recovers
// the lease (HDFS's soft limit is 60 s).
const DefaultLeaseTimeout = time.Minute

// Options configure a Namenode.
type Options struct {
	// Clock defaults to the system clock.
	Clock clock.Clock
	// Expiry is the datanode liveness window (DefaultExpiry when zero).
	Expiry time.Duration
	// LeaseTimeout is the writer-lease expiry window
	// (DefaultLeaseTimeout when zero).
	LeaseTimeout time.Duration
	// Seed drives placement randomness; a fixed seed makes tests and
	// simulations reproducible. Zero means seed from the system clock.
	Seed int64
	// Shards is the namespace shard (and block stripe) count, rounded up
	// to a power of two. Zero selects DefaultShards; 1 approximates the
	// old single-lock namesystem (useful for contention A/B tests).
	Shards int
	// Obs, when set, receives metrics (RPC latency per method, placement
	// decisions, block recoveries, shard contention) under the
	// "namenode" component.
	Obs *obs.Obs
	// Policy names the policy used for namenode-initiated placement
	// (re-replication target selection). Client-driven placement carries
	// its policy in each request instead. Empty selects policy.Default;
	// unknown names fall back to it.
	Policy string
}

// methodMetrics holds one RPC method's latency histogram and error
// counter, updated by the RPC-server observer.
type methodMetrics struct {
	lat  *obs.Histogram
	errs *obs.Counter
}

// Namenode is the metadata server. Create one with New, then Serve it on
// a transport listener (or call its methods directly in-process, which is
// what the discrete-event simulator does).
type Namenode struct {
	clk      clock.Clock
	ns       *namesystem
	dm       *datanodeManager
	registry *core.Registry
	repl     *replicationManager
	rng      *rand.Rand
	leaseTTL time.Duration

	// mu guards the server handle and balancerMoves (admin state); it is
	// last in the lock order and never held across other subsystems.
	mu sync.Mutex
	// balancerMoves tracks in-flight balancer transfers by block ID.
	balancerMoves map[block.ID]pendingMove
	server        *rpc.Server

	// safeMode blocks namespace mutations after a restart until enough
	// blocks have at least one reported replica (like HDFS startup).
	safeMode atomic.Bool

	// policies holds one shared instance per built-in policy name (state
	// like speedaware's history accumulates across requests);
	// maintPolicy names the one used for namenode-initiated placement.
	policies    map[string]policy.Policy
	maintPolicy string

	// handlers maps every served method name to its decode/execute
	// handler: the registration table for Serve and the key set for mm.
	handlers map[string]rpc.Handler

	// Observability (nil-safe no-ops when Options.Obs is unset).
	obsComp          *obs.Component
	mm               map[string]methodMetrics
	mPlaceSmarth     *obs.Counter
	mPlaceDefault    *obs.Counter
	mPolicyDecisions *obs.Counter            // every placement decision, any policy
	mPolicyPlace     map[string]*obs.Counter // placement decisions per policy name
	mBlocksAllocated *obs.Counter
	mBlockRecoveries *obs.Counter
	mRPCs            *obs.Counter // RPCs served
	mShardContention *obs.Counter // contended shard/stripe lock acquisitions
}

// New constructs a namenode.
func New(opts Options) *Namenode {
	clk := opts.Clock
	if clk == nil {
		clk = clock.System
	}
	seed := opts.Seed
	if seed == 0 {
		seed = clk.Now().UnixNano()
	}
	rng := rand.New(rand.NewSource(seed))
	dm := newDatanodeManager(clk, opts.Expiry)
	registry := core.NewRegistry()
	policies := make(map[string]policy.Policy, len(policy.Names()))
	for _, name := range policy.Names() {
		p, err := policy.New(name)
		if err != nil {
			panic("namenode: built-in policy failed to construct: " + err.Error())
		}
		policies[name] = p
	}
	leaseTTL := opts.LeaseTimeout
	if leaseTTL <= 0 {
		leaseTTL = DefaultLeaseTimeout
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = DefaultShards
	}
	nn := &Namenode{
		clk:           clk,
		dm:            dm,
		registry:      registry,
		repl:          newReplicationManager(dm.expiry),
		rng:           rng,
		leaseTTL:      leaseTTL,
		balancerMoves: make(map[block.ID]pendingMove),
		policies:      policies,
		maintPolicy:   opts.Policy,
	}
	nn.obsComp = opts.Obs.Component("namenode")
	nn.mPlaceSmarth = nn.obsComp.Counter("placement_smarth")
	nn.mPlaceDefault = nn.obsComp.Counter("placement_default")
	nn.mPolicyDecisions = nn.obsComp.Counter("policy_decisions")
	nn.mPolicyPlace = make(map[string]*obs.Counter, len(policies))
	for _, name := range policy.Names() {
		nn.mPolicyPlace[name] = nn.obsComp.Counter("policy_place_" + name)
	}
	nn.mBlocksAllocated = nn.obsComp.Counter("blocks_allocated")
	nn.mBlockRecoveries = nn.obsComp.Counter("block_recoveries")
	nn.mRPCs = nn.obsComp.Counter("nn_rpcs")
	nn.mShardContention = nn.obsComp.Counter("shard_contention")
	nn.ns = newNamesystem(shards, nn.mShardContention)
	nn.handlers = map[string]rpc.Handler{
		nnapi.MethodCreate:             rpc.HandlerFor(nnapi.MethodCreate, nn.Create),
		nnapi.MethodAddBlock:           rpc.HandlerFor(nnapi.MethodAddBlock, nn.AddBlock),
		nnapi.MethodAbandonBlock:       rpc.HandlerFor(nnapi.MethodAbandonBlock, nn.AbandonBlock),
		nnapi.MethodComplete:           rpc.HandlerFor(nnapi.MethodComplete, nn.Complete),
		nnapi.MethodRecoverBlock:       rpc.HandlerFor(nnapi.MethodRecoverBlock, nn.RecoverBlock),
		nnapi.MethodClientHeartbeat:    rpc.HandlerFor(nnapi.MethodClientHeartbeat, nn.ClientHeartbeat),
		nnapi.MethodGetBlockLocations:  rpc.HandlerFor(nnapi.MethodGetBlockLocations, nn.GetBlockLocations),
		nnapi.MethodGetFileInfo:        rpc.HandlerFor(nnapi.MethodGetFileInfo, nn.GetFileInfo),
		nnapi.MethodClusterInfo:        rpc.HandlerFor(nnapi.MethodClusterInfo, nn.ClusterInfo),
		nnapi.MethodDelete:             rpc.HandlerFor(nnapi.MethodDelete, nn.Delete),
		nnapi.MethodRename:             rpc.HandlerFor(nnapi.MethodRename, nn.Rename),
		nnapi.MethodList:               rpc.HandlerFor(nnapi.MethodList, nn.List),
		nnapi.MethodHeartbeat:          rpc.HandlerFor(nnapi.MethodHeartbeat, nn.Heartbeat),
		nnapi.MethodBlockReceived:      rpc.HandlerFor(nnapi.MethodBlockReceived, nn.BlockReceived),
		nnapi.MethodBlockReceivedBatch: rpc.HandlerFor(nnapi.MethodBlockReceivedBatch, nn.BlockReceivedBatch),
		nnapi.MethodRegister:           rpc.HandlerFor(nnapi.MethodRegister, nn.Register),
		nnapi.MethodDecommission:       rpc.HandlerFor(nnapi.MethodDecommission, nn.Decommission),
		nnapi.MethodDecommStatus:       rpc.HandlerFor(nnapi.MethodDecommStatus, nn.DecommissionStatus),
		nnapi.MethodBalance:            rpc.HandlerFor(nnapi.MethodBalance, nn.Balance),
	}
	if opts.Obs != nil {
		nn.mm = make(map[string]methodMetrics, len(nn.handlers))
		for m := range nn.handlers {
			nn.mm[m] = methodMetrics{
				lat:  nn.obsComp.Histogram("rpc_" + m + "_ns"),
				errs: nn.obsComp.Counter("rpc_" + m + "_errors"),
			}
		}
	}
	return nn
}

// Registry exposes the speed-record registry (used by tests and tools).
func (nn *Namenode) Registry() *core.Registry { return nn.registry }

// place runs one placement decision under the datanode manager's lock,
// so the policy observes a consistent topology (via placementView) and
// the shared rng is race-free. policyName resolves through policyByName
// ("" → default); the decision is counted globally and per policy.
func (nn *Namenode) place(policyName string, mode proto.WriteMode, client string, replication int, exclude []string) ([]block.DatanodeInfo, error) {
	pol := nn.policyByName(policyName)
	nn.mPolicyDecisions.Inc()
	if c, ok := nn.mPolicyPlace[pol.Name()]; ok {
		c.Inc()
	}
	nn.dm.mu.Lock()
	defer nn.dm.mu.Unlock()
	return pol.Place(placementView{dm: nn.dm, registry: nn.registry}, policy.PlaceInput{
		Client:      client,
		Mode:        mode,
		Replication: replication,
		Exclude:     exclude,
		Rng:         nn.rng,
	})
}

// policyByName resolves a request's policy name against the shared
// instances; empty and unknown names both land on the default so a
// namenode never rejects a request over a policy label (validation
// happens client-side where an error can reach the caller).
func (nn *Namenode) policyByName(name string) policy.Policy {
	if p, ok := nn.policies[name]; ok {
		return p
	}
	return nn.policies[policy.Default]
}

// Serve runs the RPC server on l until the listener closes.
func (nn *Namenode) Serve(l transport.Listener) {
	s := rpc.NewServer()
	for method, h := range nn.handlers {
		s.RegisterFunc(method, h)
	}
	if nn.obsComp != nil {
		// Per-method latency histograms and error counters are pre-built
		// in New, so the observer callback is a lock-free map read +
		// atomic update.
		s.SetObserver(func(method string, d time.Duration, errored bool) {
			nn.mRPCs.Inc()
			mm, ok := nn.mm[method]
			if !ok {
				return
			}
			mm.lat.Observe(d.Nanoseconds())
			if errored {
				mm.errs.Inc()
			}
		})
	}
	nn.mu.Lock()
	nn.server = s
	nn.mu.Unlock()
	s.Serve(l)
}

// Close stops the RPC server if Serve was called.
func (nn *Namenode) Close() {
	nn.mu.Lock()
	s := nn.server
	nn.mu.Unlock()
	if s != nil {
		s.Close()
	}
}

// --- ClientProtocol ---

// checkSafeMode recomputes and reports safe-mode state: the namenode
// leaves safe mode once every known block has at least one reported
// replica (or the namespace holds no blocks). The fast path is one
// atomic load; the stripe scan runs only while safe mode is still on.
func (nn *Namenode) checkSafeMode() error {
	if !nn.safeMode.Load() {
		return nil
	}
	if nn.ns.anyUnreportedBlock() {
		return ErrSafeMode
	}
	nn.safeMode.Store(false)
	return nil
}

// Create makes a new file in the namespace (write step 1). The policy
// named in the request gets the final word on the file's replication
// factor (identity for all built-in policies).
func (nn *Namenode) Create(req nnapi.CreateReq) (nnapi.CreateResp, error) {
	if err := nn.checkSafeMode(); err != nil {
		return nnapi.CreateResp{}, err
	}
	replication := nn.policyByName(req.Policy).ReplicationFor(req.Path, req.Replication)
	if err := nn.ns.create(req.Path, req.Client, replication, req.BlockSize, req.Overwrite, nn.clk.Now()); err != nil {
		return nnapi.CreateResp{}, err
	}
	return nnapi.CreateResp{}, nil
}

// AddBlock allocates the file's next block and chooses its pipeline with
// the policy matching the requested write mode.
func (nn *Namenode) AddBlock(req nnapi.AddBlockReq) (nnapi.AddBlockResp, error) {
	if err := nn.checkSafeMode(); err != nil {
		return nnapi.AddBlockResp{}, err
	}
	b, targets, reused, err := nn.ns.addBlock(req.Path, req.Client, req.Previous, nn.clk.Now(),
		func(replication int) ([]block.DatanodeInfo, error) {
			return nn.place(req.Policy, req.Mode, req.Client, replication, req.Exclude)
		})
	if err != nil {
		return nnapi.AddBlockResp{}, err
	}
	if req.Mode == proto.ModeSmarth {
		nn.mPlaceSmarth.Inc()
	} else {
		nn.mPlaceDefault.Inc()
	}
	if !reused {
		nn.mBlocksAllocated.Inc()
	}
	return nnapi.AddBlockResp{Located: block.LocatedBlock{Block: b, Targets: targets}}, nil
}

// AbandonBlock drops an allocated block that never received data.
func (nn *Namenode) AbandonBlock(req nnapi.AbandonBlockReq) (nnapi.AbandonBlockResp, error) {
	return nnapi.AbandonBlockResp{}, nn.ns.abandonBlock(req.Path, req.Client, req.Block)
}

// Complete finishes the file once every block is minimally replicated
// (write step 6). Done=false asks the client to retry shortly, matching
// HDFS's completeFile loop.
func (nn *Namenode) Complete(req nnapi.CompleteReq) (nnapi.CompleteResp, error) {
	done, err := nn.ns.complete(req.Path, req.Client)
	return nnapi.CompleteResp{Done: done}, err
}

// RecoverBlock re-provisions a failed pipeline: bump the generation
// stamp, schedule stale replicas for deletion, and build a fresh target
// list (surviving nodes first, then replacements chosen by the current
// policy).
func (nn *Namenode) RecoverBlock(req nnapi.RecoverBlockReq) (nnapi.RecoverBlockResp, error) {
	if err := nn.checkSafeMode(); err != nil {
		return nnapi.RecoverBlockResp{}, err
	}
	newBlock, targets, err := nn.ns.recoverBlock(req.Path, req.Client, req.Block, nn.clk.Now(),
		func(replication int, stale []string) ([]block.DatanodeInfo, error) {
			for _, dn := range stale {
				nn.dm.scheduleInvalidate(dn, req.Block.ID, req.Block.Gen)
			}
			// Keep the surviving datanodes (they already hold partial data
			// and proved reachable), then top up to the replication factor.
			targets := make([]block.DatanodeInfo, 0, replication)
			taken := make([]string, 0, len(req.Alive)+len(req.Exclude))
			taken = append(taken, req.Exclude...)
			aliveSet := make(map[string]bool)
			for _, n := range nn.dm.aliveNames() {
				aliveSet[n] = true
			}
			for _, name := range req.Alive {
				if info, ok := nn.dm.lookup(name); ok && aliveSet[name] && len(targets) < replication {
					targets = append(targets, info)
					taken = append(taken, name)
				}
			}
			if missing := replication - len(targets); missing > 0 {
				extra, err := nn.place(req.Policy, req.Mode, req.Client, missing, taken)
				if err != nil && len(targets) == 0 {
					return nil, fmt.Errorf("recover %v: %w", req.Block, err)
				}
				targets = append(targets, extra...)
			}
			return targets, nil
		})
	if err != nil {
		return nnapi.RecoverBlockResp{}, err
	}
	nn.mBlockRecoveries.Inc()
	return nnapi.RecoverBlockResp{Located: block.LocatedBlock{Block: newBlock, Targets: targets}}, nil
}

// ClientHeartbeat ingests a client's speed records (SMARTH §III-B) and
// renews the client's write leases (O(the client's open files), via the
// per-shard lease index). Every registered policy observes the
// heartbeat (in the fixed policy.Names order), so stateful policies
// accumulate histories regardless of which policy places the writes.
func (nn *Namenode) ClientHeartbeat(req nnapi.ClientHeartbeatReq) (nnapi.ClientHeartbeatResp, error) {
	nn.registry.Update(req.Client, req.Speeds)
	for _, name := range policy.Names() {
		nn.policies[name].ObserveHeartbeat(req.Client, req.Speeds)
	}
	nn.ns.renewLeases(req.Client, nn.clk.Now())
	return nnapi.ClientHeartbeatResp{}, nil
}

// GetBlockLocations returns each block of a file with the datanodes known
// to hold finalized replicas. When the request names a client, holders
// are ordered by network distance from it (node-local, then rack-local,
// then remote), so readers prefer close replicas; otherwise the order is
// stable by name.
func (nn *Namenode) GetBlockLocations(req nnapi.GetBlockLocationsReq) (nnapi.GetBlockLocationsResp, error) {
	v, length, ok := nn.ns.fileInfo(req.Path)
	if !ok {
		return nnapi.GetBlockLocationsResp{}, fmt.Errorf("%w: %s", ErrFileNotFound, req.Path)
	}
	resp := nnapi.GetBlockLocationsResp{Len: length}
	for _, id := range v.blocks {
		cur, _, holders, ok := nn.ns.blockView(id)
		if !ok {
			continue
		}
		resp.Blocks = append(resp.Blocks, block.LocatedBlock{
			Block:   cur,
			Targets: nn.dm.orderedHolders(req.Client, holders),
		})
	}
	return resp, nil
}

// Delete removes a file and schedules every replica for deletion.
func (nn *Namenode) Delete(req nnapi.DeleteReq) (nnapi.DeleteResp, error) {
	if err := nn.checkSafeMode(); err != nil {
		return nnapi.DeleteResp{}, err
	}
	stale, existed := nn.ns.deleteFile(req.Path)
	for dn, blocks := range stale {
		for _, b := range blocks {
			nn.dm.scheduleInvalidate(dn, b.ID, b.Gen)
		}
	}
	return nnapi.DeleteResp{Deleted: existed}, nil
}

// Rename moves a file in the namespace.
func (nn *Namenode) Rename(req nnapi.RenameReq) (nnapi.RenameResp, error) {
	if err := nn.checkSafeMode(); err != nil {
		return nnapi.RenameResp{}, err
	}
	return nnapi.RenameResp{}, nn.ns.rename(req.Src, req.Dst)
}

// List enumerates files under a path prefix with replication health.
func (nn *Namenode) List(req nnapi.ListReq) (nnapi.ListResp, error) {
	aliveSet := make(map[string]bool)
	for _, n := range nn.dm.aliveNames() {
		aliveSet[n] = true
	}
	var resp nnapi.ListResp
	for _, v := range nn.ns.list(req.Prefix) {
		st := nnapi.FileStatus{
			Path:            v.path,
			Replication:     v.replication,
			Complete:        v.complete,
			NumBlocks:       len(v.blocks),
			MinLiveReplicas: -1,
		}
		for _, id := range v.blocks {
			cur, _, holders, ok := nn.ns.blockView(id)
			if !ok {
				continue
			}
			st.Len += cur.NumBytes
			live := 0
			for _, holder := range holders {
				if aliveSet[holder] {
					live++
				}
			}
			if st.MinLiveReplicas < 0 || live < st.MinLiveReplicas {
				st.MinLiveReplicas = live
			}
		}
		if st.MinLiveReplicas < 0 {
			st.MinLiveReplicas = 0
		}
		resp.Files = append(resp.Files, st)
	}
	return resp, nil
}

// GetFileInfo reports file metadata.
func (nn *Namenode) GetFileInfo(req nnapi.GetFileInfoReq) (nnapi.GetFileInfoResp, error) {
	v, length, ok := nn.ns.fileInfo(req.Path)
	if !ok {
		return nnapi.GetFileInfoResp{Exists: false}, nil
	}
	return nnapi.GetFileInfoResp{
		Exists:      true,
		Complete:    v.complete,
		Len:         length,
		Replication: v.replication,
		BlockSize:   v.blockSize,
		NumBlocks:   len(v.blocks),
	}, nil
}

// ClusterInfo reports live cluster geometry.
func (nn *Namenode) ClusterInfo(nnapi.ClusterInfoReq) (nnapi.ClusterInfoResp, error) {
	return nnapi.ClusterInfoResp{
		ActiveDatanodes: len(nn.dm.aliveNames()),
		Racks:           nn.dm.numRacks(),
		SafeMode:        nn.checkSafeMode() != nil,
	}, nil
}

// --- AdminProtocol ---

// Decommission starts (or cancels) draining a datanode: it is removed
// from placement immediately and its blocks get copied elsewhere by the
// replication scanner; it keeps serving reads and sourcing transfers.
func (nn *Namenode) Decommission(req nnapi.DecommissionReq) (nnapi.DecommissionResp, error) {
	if !nn.dm.setDecommissioning(req.Name, !req.Cancel) {
		return nnapi.DecommissionResp{}, fmt.Errorf("namenode: unknown datanode %q", req.Name)
	}
	// Kick the next scan so drain work starts on the next heartbeat.
	nn.repl.kick()
	return nnapi.DecommissionResp{}, nil
}

// DecommissionStatus reports how many blocks still depend on the node.
func (nn *Namenode) DecommissionStatus(req nnapi.DecommStatusReq) (nnapi.DecommStatusResp, error) {
	resp := nnapi.DecommStatusResp{Decommissioning: nn.dm.isDecommissioning(req.Name)}
	placeable := make(map[string]bool)
	for _, n := range nn.dm.placeableNames() {
		placeable[n] = true
	}
	nn.ns.forEachFile(func(f *fileInode) {
		for _, id := range f.blocks {
			_, _, holders, ok := nn.ns.blockView(id)
			if !ok {
				continue
			}
			holds, good := false, 0
			for _, holder := range holders {
				if holder == req.Name {
					holds = true
				}
				if placeable[holder] {
					good++
				}
			}
			if holds && good < f.replication {
				resp.RemainingBlocks++
			}
		}
	})
	resp.Done = resp.Decommissioning && resp.RemainingBlocks == 0
	return resp, nil
}

// --- DatanodeProtocol ---

// Register announces a datanode and ingests its block report.
func (nn *Namenode) Register(req nnapi.RegisterReq) (nnapi.RegisterResp, error) {
	nn.dm.register(block.DatanodeInfo{Name: req.Name, Addr: req.Addr, Rack: req.Rack})
	for _, b := range req.Blocks {
		if err := nn.ns.blockReceived(req.Name, b); err != nil {
			// Unknown or stale replica: have the datanode delete it.
			nn.dm.scheduleInvalidate(req.Name, b.ID, b.Gen)
		}
	}
	return nnapi.RegisterResp{}, nil
}

// Heartbeat refreshes liveness and drains invalidation work.
func (nn *Namenode) Heartbeat(req nnapi.HeartbeatReq) (nnapi.HeartbeatResp, error) {
	inv, known := nn.dm.heartbeat(req.Name, req.UsedBytes)
	if !known {
		return nnapi.HeartbeatResp{}, fmt.Errorf("namenode: heartbeat from unregistered datanode %q", req.Name)
	}
	return nnapi.HeartbeatResp{
		Invalidate: inv,
		Replicate:  nn.replicationWorkFor(req.Name),
	}, nil
}

// blockReceivedOne ingests one finalized-replica report: record the
// location (or schedule deletion of a stale/unknown replica), clear any
// pending re-replication, and complete a balancer move it may finish.
func (nn *Namenode) blockReceivedOne(name string, b block.Block) error {
	if err := nn.ns.blockReceived(name, b); err != nil {
		nn.dm.scheduleInvalidate(name, b.ID, b.Gen)
		return err
	}
	nn.repl.satisfied(b.ID)
	nn.completeBalancerMove(name, b)
	return nil
}

// BlockReceived records a finalized replica.
func (nn *Namenode) BlockReceived(req nnapi.BlockReceivedReq) (nnapi.BlockReceivedResp, error) {
	if err := nn.blockReceivedOne(req.Name, req.Block); err != nil {
		return nnapi.BlockReceivedResp{}, err
	}
	return nnapi.BlockReceivedResp{}, nil
}

// BlockReceivedBatch ingests a datanode's delta block report: every
// replica finalized since the last report, in order, in one frame.
// Rejected entries (unknown block or stale generation) are counted and
// scheduled for deletion, exactly as the per-block RPC would.
func (nn *Namenode) BlockReceivedBatch(req nnapi.BlockReceivedBatchReq) (nnapi.BlockReceivedBatchResp, error) {
	var resp nnapi.BlockReceivedBatchResp
	for _, b := range req.Blocks {
		if err := nn.blockReceivedOne(req.Name, b); err != nil {
			resp.Rejected++
		}
	}
	return resp, nil
}
