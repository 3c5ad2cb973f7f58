// Package livebench runs scaled-down versions of the paper's experiments
// on the REAL concurrent stack — actual bytes through checksummed
// pipelines over a bandwidth-shaped in-memory network — so the
// discrete-event simulator's predictions can be cross-validated against
// the live protocol. File and block sizes shrink (typically 128x) while
// NIC and throttle rates keep their true values, so ratios between the
// protocols are preserved even though a run takes seconds instead of
// minutes.
package livebench

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/ec2"
	"repro/internal/workload"
)

// Config describes one live two-rack experiment.
type Config struct {
	// Preset supplies NIC rates (small/medium/large/hetero).
	Preset ec2.ClusterPreset
	// CrossRackMbps throttles traffic between the two racks (0 = none).
	CrossRackMbps float64
	// NodeLimitMbps throttles individual datanodes (0-based index).
	NodeLimitMbps map[int]float64
	// FileBytes per upload; BlockSize and PacketSize should scale with
	// it (e.g. 64 MB file, 1 MB blocks, 64 KB packets).
	FileBytes  int64
	BlockSize  int64
	PacketSize int
	// Replication defaults to 3.
	Replication int
	// Seed fixes placement randomness and the payload.
	Seed int64
	// Logf receives component diagnostics.
	Logf func(format string, args ...any)
}

func (c *Config) applyDefaults() {
	if c.FileBytes <= 0 {
		c.FileBytes = 64 << 20
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 1 << 20
	}
	if c.PacketSize <= 0 {
		c.PacketSize = 64 << 10
	}
	if c.Replication <= 0 {
		c.Replication = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Outcome reports measured upload durations on the live stack.
type Outcome struct {
	HDFS   time.Duration
	Smarth time.Duration
	// SmarthCold is the first SMARTH pass, before any speed records
	// existed (reported for completeness; Smarth is the warmed pass).
	SmarthCold time.Duration
}

// Improvement is the paper's metric for the warmed SMARTH pass.
func (o Outcome) Improvement() float64 {
	if o.Smarth <= 0 {
		return 0
	}
	return float64(o.HDFS-o.Smarth) / float64(o.Smarth)
}

// rackFor mirrors the paper's 5+4 split.
func rackFor(i int) string {
	if i < 5 {
		return "/rack-a"
	}
	return "/rack-b"
}

// Run boots a shaped cluster, uploads the workload under HDFS, then twice
// under SMARTH (cold, then with warmed speed records), and verifies every
// byte read back.
func Run(cfg Config) (Outcome, error) {
	cfg.applyDefaults()
	var out Outcome

	shaper := cluster.NewShaper(nil)
	for i, inst := range cfg.Preset.Datanodes {
		name := cluster.DatanodeName(i)
		shaper.SetNode(name, rackFor(i), inst.NetworkBps())
		if cfg.CrossRackMbps > 0 {
			shaper.SetCrossRackLimit(name, cfg.CrossRackMbps*1e6/8)
		}
		if limit, ok := cfg.NodeLimitMbps[i]; ok && limit > 0 {
			shaper.SetNodeLimit(name, limit*1e6/8)
		}
	}
	shaper.SetNode("live-client", "/rack-a", cfg.Preset.Client.NetworkBps())
	if cfg.CrossRackMbps > 0 {
		shaper.SetCrossRackLimit("live-client", cfg.CrossRackMbps*1e6/8)
	}

	c, err := cluster.Start(cluster.Config{
		NumDatanodes: len(cfg.Preset.Datanodes),
		RackFor:      rackFor,
		Shaper:       shaper,
		Seed:         cfg.Seed,
		Logf:         cfg.Logf,
	})
	if err != nil {
		return out, err
	}
	defer c.Stop()

	cl, err := c.NewClient("live-client")
	if err != nil {
		return out, err
	}

	opts := client.WriteOptions{
		Replication: cfg.Replication,
		BlockSize:   cfg.BlockSize,
		PacketSize:  cfg.PacketSize,
	}
	// Generated once, before any timed region, and shared by all three
	// uploads.
	payload := workload.Data(cfg.Seed, int(cfg.FileBytes))
	upload := func(path string, smarth bool) (time.Duration, error) {
		var w client.Writer
		var err error
		if smarth {
			w, err = cl.CreateSmarth(path, opts)
		} else {
			w, err = cl.CreateHDFS(path, opts)
		}
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if _, err := copyAll(w, bytes.NewReader(payload)); err != nil {
			return 0, err
		}
		if err := w.Close(); err != nil {
			return 0, err
		}
		elapsed := time.Since(start)

		// Integrity: stream the file back through a verifier.
		r, err := cl.Open(path)
		if err != nil {
			return 0, err
		}
		v := workload.NewVerifier(cfg.Seed, cfg.FileBytes)
		if _, err := copyAll(v, r); err != nil {
			r.Close()
			return 0, fmt.Errorf("livebench: verify %s: %w", path, err)
		}
		r.Close()
		if err := v.Close(); err != nil {
			return 0, fmt.Errorf("livebench: verify %s: %w", path, err)
		}
		return elapsed, nil
	}

	if out.HDFS, err = upload("/live-hdfs", false); err != nil {
		return out, err
	}
	if out.SmarthCold, err = upload("/live-smarth-cold", true); err != nil {
		return out, err
	}
	if out.Smarth, err = upload("/live-smarth", true); err != nil {
		return out, err
	}
	return out, nil
}

// FaultOutcome quantifies recovery overhead on the live stack: the same
// SMARTH upload run cleanly and with a datanode killed partway through.
type FaultOutcome struct {
	Clean      time.Duration
	WithFault  time.Duration
	Recoveries int
	// Victim is the datanode killed in the faulted run.
	Victim string
}

// Overhead is the slowdown caused by the mid-upload crash.
func (f FaultOutcome) Overhead() float64 {
	if f.Clean <= 0 {
		return 0
	}
	return float64(f.WithFault-f.Clean) / float64(f.Clean)
}

// RunFault measures SMARTH upload time without and with a datanode crash
// at the halfway point (Algorithms 3/4 in action), verifying integrity
// both times. The paper describes the fault-tolerance design but never
// costs it; this extension does.
func RunFault(cfg Config) (FaultOutcome, error) {
	cfg.applyDefaults()
	var out FaultOutcome
	payload := workload.Data(cfg.Seed, int(cfg.FileBytes))

	run := func(kill bool) (time.Duration, int, string, error) {
		shaper := cluster.NewShaper(nil)
		for i, inst := range cfg.Preset.Datanodes {
			shaper.SetNode(cluster.DatanodeName(i), rackFor(i), inst.NetworkBps())
		}
		shaper.SetNode("live-client", "/rack-a", cfg.Preset.Client.NetworkBps())
		c, err := cluster.Start(cluster.Config{
			NumDatanodes: len(cfg.Preset.Datanodes),
			RackFor:      rackFor,
			Shaper:       shaper,
			Seed:         cfg.Seed,
			Logf:         cfg.Logf,
		})
		if err != nil {
			return 0, 0, "", err
		}
		defer c.Stop()
		cl, err := c.NewClient("live-client")
		if err != nil {
			return 0, 0, "", err
		}
		w, err := cl.CreateSmarth("/fault-run", client.WriteOptions{
			Replication: cfg.Replication,
			BlockSize:   cfg.BlockSize,
			PacketSize:  cfg.PacketSize,
		})
		if err != nil {
			return 0, 0, "", err
		}
		start := time.Now()
		victim := ""
		src := bytes.NewReader(payload)
		buf := make([]byte, 64<<10)
		var written int64
		for {
			n, rerr := src.Read(buf)
			if n > 0 {
				if kill && victim == "" && written >= cfg.FileBytes/2 {
					// Kill a datanode currently holding replicas.
					for _, dn := range c.DNs {
						if dn != nil && len(dn.Store().Blocks()) > 0 {
							victim = dn.Name()
							break
						}
					}
					if victim != "" {
						c.KillDatanode(victim)
					}
				}
				if _, werr := w.Write(buf[:n]); werr != nil {
					return 0, 0, victim, werr
				}
				written += int64(n)
			}
			if rerr == io.EOF {
				break
			}
			if rerr != nil {
				return 0, 0, victim, rerr
			}
		}
		if err := w.Close(); err != nil {
			return 0, 0, victim, err
		}
		elapsed := time.Since(start)

		// Verify integrity.
		r, err := cl.Open("/fault-run")
		if err != nil {
			return 0, 0, victim, err
		}
		v := workload.NewVerifier(cfg.Seed, cfg.FileBytes)
		if _, err := copyAll(v, r); err != nil {
			r.Close()
			return 0, 0, victim, fmt.Errorf("livebench: fault-run verify: %w", err)
		}
		r.Close()
		if err := v.Close(); err != nil {
			return 0, 0, victim, fmt.Errorf("livebench: fault-run verify: %w", err)
		}
		return elapsed, w.Stats().Recoveries, victim, nil
	}

	var err error
	if out.Clean, _, _, err = run(false); err != nil {
		return out, err
	}
	if out.WithFault, out.Recoveries, out.Victim, err = run(true); err != nil {
		return out, err
	}
	return out, nil
}

// copyAll copies src to dst in 64 KiB chunks.
func copyAll(dst io.Writer, src io.Reader) (int64, error) {
	buf := make([]byte, 64<<10)
	var total int64
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return total, werr
			}
			total += int64(n)
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				return total, nil
			}
			return total, err
		}
	}
}
