package hotbench

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/cluster"
	"repro/internal/nnapi"
	"repro/internal/proto"
	"repro/internal/rpc"
)

// Control-plane benchmark geometry. The workload is fixed so recorded
// runs stay comparable across changes: a namenode serving an established
// namespace of CtrlPrefillFiles completed files while CtrlWriters
// concurrent writers each run CtrlFilesPerOp full write lifecycles of
// CtrlBlocksPerFile blocks — create, then per block a client heartbeat
// followed by addBlock (the SMARTH cadence), then the datanode-side
// finalized-replica reports, complete, and delete. Only control-plane
// RPCs flow; no block data moves, so the namenode is the only
// bottleneck.
const (
	// CtrlWriters is the concurrent-writer count (the ROADMAP's
	// control-plane scale target measures at 64).
	CtrlWriters = 64
	// CtrlBlocksPerFile is how many addBlock rounds each file takes.
	CtrlBlocksPerFile = 8
	// CtrlFilesPerOp is how many files each writer writes per benchmark
	// iteration.
	CtrlFilesPerOp = 4
	// CtrlPrefillFiles is the size of the pre-existing namespace: lease
	// renewal and maintenance scans must not degrade with it.
	CtrlPrefillFiles = 16384
	// ctrlBlockBytes is the pretended size of every reported block.
	ctrlBlockBytes = 1 << 20
)

// ctrlLatencies collects addBlock latencies across writers.
type ctrlLatencies struct {
	mu      sync.Mutex
	samples []time.Duration
}

func (l *ctrlLatencies) add(d time.Duration) {
	l.mu.Lock()
	l.samples = append(l.samples, d)
	l.mu.Unlock()
}

// quantile returns the q-quantile (0..1) of the collected samples.
func (l *ctrlLatencies) quantile(q float64) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.samples) == 0 {
		return 0
	}
	sort.Slice(l.samples, func(i, j int) bool { return l.samples[i] < l.samples[j] })
	i := int(q * float64(len(l.samples)-1))
	return l.samples[i]
}

// ctrlSpeeds is the speed table every bench writer heartbeats: a spread
// so SMARTH placement has real TopN choices.
func ctrlSpeeds(numDN int) map[string]float64 {
	m := make(map[string]float64, numDN)
	for i := 0; i < numDN; i++ {
		m[cluster.DatanodeName(i)] = float64(40 + 15*i)
	}
	return m
}

// ctrlPrefill populates the namespace with n completed single-block
// files through direct namenode calls (no RPC), so the benchmark starts
// against an established namespace rather than an empty one.
func ctrlPrefill(b *testing.B, c *cluster.Cluster, n int) {
	b.Helper()
	nn := c.NN
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("/prefill/d%03d/f%d", i%512, i)
		if _, err := nn.Create(nnapi.CreateReq{Path: path, Client: "prefill", Replication: 1, BlockSize: ctrlBlockBytes}); err != nil {
			b.Fatal(err)
		}
		resp, err := nn.AddBlock(nnapi.AddBlockReq{Path: path, Client: "prefill"})
		if err != nil {
			b.Fatal(err)
		}
		blk := resp.Located.Block
		blk.NumBytes = ctrlBlockBytes
		if _, err := nn.BlockReceived(nnapi.BlockReceivedReq{Name: resp.Located.Targets[0].Name, Block: blk}); err != nil {
			b.Fatal(err)
		}
		if _, err := nn.Complete(nnapi.CompleteReq{Path: path, Client: "prefill"}); err != nil {
			b.Fatal(err)
		}
	}
}

// ControlPlane measures namenode control-plane throughput: CtrlWriters
// concurrent writers run full metadata-only write lifecycles against a
// CtrlPrefillFiles-file namespace, one plain RPC per operation: per
// block a heartbeat then an addBlock (the client's wire order), then one
// blockReceived per finalized replica.
//
// Reported metrics: "rpcs/s" is control-plane RPCs served per second;
// "addblock-p50-ns"/"addblock-p99-ns" are client-observed latencies of
// each block's heartbeat+addBlock pair.
func ControlPlane(b *testing.B) {
	c, err := cluster.Start(cluster.Config{NumDatanodes: 9, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Stop()
	ctrlPrefill(b, c, CtrlPrefillFiles)

	speeds := ctrlSpeeds(9)
	lat := &ctrlLatencies{}
	var totalOps int64
	var opsMu sync.Mutex

	runWriter := func(w, iter int) (ops int64, err error) {
		name := fmt.Sprintf("ctrl-w%d", w)
		conn, err := c.EffNet.Dial(name, cluster.NamenodeAddr)
		if err != nil {
			return 0, err
		}
		cl := rpc.NewClient(conn)
		defer cl.Close()
		dn := cluster.DatanodeName(w % 9)
		for f := 0; f < CtrlFilesPerOp; f++ {
			path := fmt.Sprintf("/ctrl/w%d/i%d-f%d", w, iter, f)
			if err := cl.Call(nnapi.MethodCreate, nnapi.CreateReq{
				Path: path, Client: name, Replication: 3, BlockSize: ctrlBlockBytes,
			}, &nnapi.CreateResp{}); err != nil {
				return ops, fmt.Errorf("create %s: %w", path, err)
			}
			ops++
			var prev block.Block
			blocks := make([]block.Block, 0, CtrlBlocksPerFile)
			for blkIdx := 0; blkIdx < CtrlBlocksPerFile; blkIdx++ {
				hb := nnapi.ClientHeartbeatReq{Client: name, Speeds: speeds}
				ab := nnapi.AddBlockReq{Path: path, Client: name, Mode: proto.ModeSmarth, Previous: prev}
				var abResp nnapi.AddBlockResp
				start := time.Now()
				if err := cl.Call(nnapi.MethodClientHeartbeat, hb, &nnapi.ClientHeartbeatResp{}); err != nil {
					return ops, fmt.Errorf("heartbeat: %w", err)
				}
				if err := cl.Call(nnapi.MethodAddBlock, ab, &abResp); err != nil {
					return ops, fmt.Errorf("addBlock %s: %w", path, err)
				}
				lat.add(time.Since(start))
				ops += 2
				prev = abResp.Located.Block
				got := abResp.Located.Block
				got.NumBytes = ctrlBlockBytes
				blocks = append(blocks, got)
			}
			// The finalized-replica reports, one RPC per block.
			for _, blk := range blocks {
				if err := cl.Call(nnapi.MethodBlockReceived, nnapi.BlockReceivedReq{Name: dn, Block: blk}, &nnapi.BlockReceivedResp{}); err != nil {
					return ops, fmt.Errorf("blockReceived: %w", err)
				}
				ops++
			}
			var comp nnapi.CompleteResp
			for !comp.Done {
				if err := cl.Call(nnapi.MethodComplete, nnapi.CompleteReq{Path: path, Client: name}, &comp); err != nil {
					return ops, fmt.Errorf("complete: %w", err)
				}
				ops++
			}
			if err := cl.Call(nnapi.MethodDelete, nnapi.DeleteReq{Path: path}, &nnapi.DeleteResp{}); err != nil {
				return ops, fmt.Errorf("delete: %w", err)
			}
			ops++
		}
		return ops, nil
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		errs := make(chan error, CtrlWriters)
		for w := 0; w < CtrlWriters; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ops, err := runWriter(w, i)
				opsMu.Lock()
				totalOps += ops
				opsMu.Unlock()
				if err != nil {
					errs <- err
				}
			}(w)
		}
		wg.Wait()
		select {
		case err := <-errs:
			b.Fatal(err)
		default:
		}
	}
	b.StopTimer()
	elapsed := b.Elapsed()
	if elapsed > 0 {
		b.ReportMetric(float64(totalOps)/elapsed.Seconds(), "rpcs/s")
	}
	b.ReportMetric(float64(lat.quantile(0.50).Nanoseconds()), "addblock-p50-ns")
	b.ReportMetric(float64(lat.quantile(0.99).Nanoseconds()), "addblock-p99-ns")
}
