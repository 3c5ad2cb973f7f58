package livebench

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/faultnet"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/workload"
)

// TraceConfig describes one traced SMARTH upload on a small rigged
// cluster. The rigging makes the trace deterministic enough to assert
// on: three datanodes with dn2 alone on a second rack, fixed seeds, and
// pre-seeded speed records with Algorithm 2 disabled, so every pipeline
// forms as dn1 > dn2 > dn3 (fastest recorded node first, remote rack
// second) and a frozen dn2 always wedges the mirror position.
type TraceConfig struct {
	// FileBytes defaults to 512 KiB; BlockSize to 256 KiB; PacketSize to
	// 32 KiB (two blocks, a handful of packets each).
	FileBytes  int64
	BlockSize  int64
	PacketSize int
	// Replication defaults to 3.
	Replication int
	// Seed fixes placement randomness and the payload.
	Seed int64
	// InjectFault freezes dn2 — the interior (mirror) position of every
	// pipeline — once half the payload is written, forcing an Algorithm 4
	// recovery that shows up in the trace. The node is thawed before the
	// cluster stops.
	InjectFault bool
	// InjectReadFault throttles the first replica's link to the client
	// during the read-back and arms a short hedge threshold, so the trace
	// additionally shows a hedged read racing the slow replica (hedge and
	// hedge_win events under a block_read span). Any write-fault victim is
	// thawed first so the hedge has a healthy replica to race to. The
	// link shaping is cleared before the cluster stops.
	InjectReadFault bool
	// PacketSampling sets the tracer's packet-event sampling: every Nth
	// packet send/ack becomes a span event. 0 keeps the obs default
	// (1 in 64); negative disables packet events.
	PacketSampling int
	// Logf receives component diagnostics.
	Logf func(format string, args ...any)
}

func (c *TraceConfig) applyDefaults() {
	if c.FileBytes <= 0 {
		c.FileBytes = 512 << 10
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 256 << 10
	}
	if c.PacketSize <= 0 {
		c.PacketSize = 32 << 10
	}
	if c.Replication <= 0 {
		c.Replication = 3
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// TraceOutcome is a traced upload's result: the wall-clock duration and
// recovery count, plus the full observability state — the span tree
// (render with obs.RenderTimeline, export with obs.WriteJSONL) and the
// metrics registry (render with Obs.Metrics.Render).
type TraceOutcome struct {
	Duration   time.Duration
	Recoveries int
	// Victim is the datanode frozen mid-write ("" without InjectFault).
	Victim string
	Obs    *obs.Obs
	Spans  []obs.SpanRecord
}

// traceTimeouts are tight enough that a wedged datanode is detected in
// fractions of a second, keeping a fault-injected trace short.
func traceTimeouts() *client.Timeouts {
	return &client.Timeouts{
		Dial:        500 * time.Millisecond,
		SetupAck:    500 * time.Millisecond,
		FNFA:        2 * time.Second,
		AckProgress: 500 * time.Millisecond,
		RPCCall:     time.Second,
		// Generous relative to the read-fault throttle: a slow replica
		// must be beaten by the hedge, not rescued by a deadline.
		ReadProgress: 2 * time.Second,
	}
}

// TraceRun uploads one file under SMARTH with full observability on —
// metrics in every component, a span per write/block/pipeline/recovery —
// optionally freezing the mirror datanode mid-write, and returns the
// collected trace. The file is read back and verified before returning.
func TraceRun(cfg TraceConfig) (TraceOutcome, error) {
	cfg.applyDefaults()
	var out TraceOutcome

	o := obs.New(nil)
	if cfg.PacketSampling != 0 {
		o.Tracer.SetPacketSampling(cfg.PacketSampling)
	}
	out.Obs = o

	var fn *faultnet.Network
	c, err := cluster.Start(cluster.Config{
		NumDatanodes: 3,
		RackFor: func(i int) string {
			if i == 1 {
				return "/rack-b"
			}
			return "/rack-a"
		},
		Seed: cfg.Seed,
		WrapNetwork: func(m *transport.MemNetwork) transport.Network {
			fn = faultnet.Wrap(m, cfg.Seed)
			return fn
		},
		ClientTimeouts:      traceTimeouts(),
		DatanodeDataTimeout: 500 * time.Millisecond,
		Obs:                 o,
		Logf:                cfg.Logf,
	})
	if err != nil {
		return out, err
	}
	defer c.Stop()
	// Thaw before Stop so a wedged node can shut down.
	defer func() {
		if out.Victim != "" {
			fn.Thaw(out.Victim)
		}
	}()

	cl, err := c.NewClient("trace-client")
	if err != nil {
		return out, err
	}
	// Rig the speed table so dn1 is always the pipeline's first node.
	cl.Recorder().Record("dn1", 64<<20, time.Second)
	cl.Recorder().Record("dn2", 32<<20, time.Second)
	cl.Recorder().Record("dn3", 16<<20, time.Second)
	cl.SendHeartbeat()

	w, err := cl.CreateSmarth("/trace-run", client.WriteOptions{
		Replication:     cfg.Replication,
		BlockSize:       cfg.BlockSize,
		PacketSize:      cfg.PacketSize,
		DisableLocalOpt: true, // keep the rigged placement order
	})
	if err != nil {
		return out, err
	}

	src := bytes.NewReader(workload.Data(cfg.Seed, int(cfg.FileBytes)))
	start := time.Now()
	buf := make([]byte, 32<<10)
	var written int64
	for written < cfg.FileBytes {
		n, rerr := src.Read(buf)
		if n > 0 {
			if cfg.InjectFault && out.Victim == "" && written >= cfg.FileBytes/2 {
				out.Victim = "dn2"
				fn.Freeze(out.Victim)
			}
			if _, werr := w.Write(buf[:n]); werr != nil {
				return out, werr
			}
			written += int64(n)
		}
		if rerr != nil {
			break
		}
	}
	if err := w.Close(); err != nil {
		return out, err
	}
	out.Duration = time.Since(start)
	out.Recoveries = w.Stats().Recoveries

	// Integrity: stream the file back through a verifier. With
	// InjectReadFault the read-back doubles as the hedged-read demo: the
	// first replica's link is throttled and a short hedge threshold makes
	// the reader race a second replica past it.
	var ro client.ReadOptions
	if cfg.InjectReadFault {
		if out.Victim != "" {
			fn.Thaw(out.Victim)
			out.Victim = ""
		}
		fn.SetLink("dn1", "trace-client", faultnet.Fault{Delay: 150 * time.Millisecond})
		defer fn.ClearLink("dn1", "trace-client")
		ro.HedgeAfter = 40 * time.Millisecond
	}
	r, err := cl.OpenWith("/trace-run", ro)
	if err != nil {
		return out, err
	}
	v := workload.NewVerifier(cfg.Seed, cfg.FileBytes)
	if _, err := copyAll(v, r); err != nil {
		r.Close()
		return out, fmt.Errorf("livebench: trace verify: %w", err)
	}
	r.Close()
	if err := v.Close(); err != nil {
		return out, fmt.Errorf("livebench: trace verify: %w", err)
	}

	out.Spans = o.Tracer.Snapshot()
	return out, nil
}
