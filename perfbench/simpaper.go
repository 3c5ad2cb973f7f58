package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/ec2"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/workload"
)

// simCase is one point of the paper sweep: an 8 GB upload into
// SmallCluster at one cross-rack throttle (0 = none) in one mode.
type simCase struct {
	mbps float64
	mode proto.WriteMode
}

func (c simCase) config() sim.Config {
	return sim.Config{
		Preset:        ec2.SmallCluster,
		FileSize:      8 * workload.GB,
		Mode:          c.mode,
		CrossRackMbps: c.mbps,
		// The figures' own seeds (internal/sim's throttle sweep), so the
		// virtual times are the pinned paper numbers on every run.
		Seed: int64(c.mbps),
	}
}

// paperVirtual pins the virtual upload time of every sweep case: the
// paper figures as internal/sim reproduces them (EXPERIMENTS.md). Any
// other value is a mismatch.
var paperVirtual = map[simCase]time.Duration{
	{0, proto.ModeHDFS}:     320227894880,
	{0, proto.ModeSmarth}:   318786960246,
	{200, proto.ModeHDFS}:   346603693024,
	{200, proto.ModeSmarth}: 325923111751,
	{100, proto.ModeHDFS}:   690887893984,
	{100, proto.ModeSmarth}: 379495147149,
	{50, proto.ModeHDFS}:    1379487753184,
	{50, proto.ModeSmarth}:  509308921031,
}

// checkResult applies the checks every simulated upload must pass.
func checkResult(cfg sim.Config, r sim.Result) error {
	if r.Bytes != cfg.FileSize {
		return fmt.Errorf("sim %s %.0f Mbps: uploaded %d of %d bytes", cfg.Mode, cfg.CrossRackMbps, r.Bytes, cfg.FileSize)
	}
	if r.Recoveries != 0 {
		return fmt.Errorf("sim %s %.0f Mbps: %d recoveries on a fault-free run", cfg.Mode, cfg.CrossRackMbps, r.Recoveries)
	}
	return nil
}

// checkCase adds the pinned paper figure to checkResult.
func checkCase(c simCase, r sim.Result) error {
	if err := checkResult(c.config(), r); err != nil {
		return err
	}
	if want := paperVirtual[c]; r.Duration != want {
		return fmt.Errorf("sim %s %.0f Mbps: virtual time %v, the paper figure is %v", c.mode, c.mbps, r.Duration, want)
	}
	return nil
}

func egressHops(r sim.Result, packetSize int64) float64 {
	var bytes int64
	for _, n := range r.EgressBytes {
		bytes += n
	}
	return float64(bytes) / float64(packetSize)
}

func runSimPaper(b *bench) error {
	// Set-up is one untimed 1 GB SMARTH upload at 100 Mbps, repeated.
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		cfg := simCase{100, proto.ModeSmarth}.config()
		cfg.FileSize = workload.GB
		r, err := sim.Run(cfg)
		if err == nil {
			err = checkResult(cfg, r)
		}
		if b.op(err) != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	b.setSample("setup_s", setups)

	var cases []simCase
	for _, mbps := range []float64{0, 200, 100, 50} {
		cases = append(cases, simCase{mbps, proto.ModeHDFS}, simCase{mbps, proto.ModeSmarth})
	}
	// The seed orders the sweep; every sweep runs every case.
	rand.New(rand.NewSource(b.seed)).Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })

	results := make(map[simCase]sim.Result)
	var (
		wallS, wallH, lifeS, sweeps, sweepsTraced []float64
		hops                                      float64
		simWall                                   time.Duration
		simBytes                                  int64
		runs                                      int
	)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for sweep := 0; time.Since(start) < b.seconds; sweep++ {
		var tr *tracer
		if sweep%2 == 1 {
			tr = b.tr
		}
		root := tr.begin("sweep", nil)
		s0 := time.Now()
		for _, c := range cases {
			cfg := c.config()
			var r sim.Result
			d, err := tr.timed("sim.run", root, func() (err error) {
				r, err = sim.Run(cfg)
				return err
			})
			if err == nil {
				err = checkCase(c, r)
			}
			if b.op(err) != nil {
				root.end()
				return err
			}
			results[c] = r
			runs++
			simWall += d
			simBytes += r.Bytes
			hops += egressHops(r, proto.DefaultPacketSize)
			if tr != nil {
				continue
			}
			rate := mbps(r.Bytes, d)
			if c.mode == proto.ModeSmarth {
				wallS = append(wallS, rate)
				lifeS = append(lifeS, ms(d))
			} else {
				wallH = append(wallH, rate)
			}
		}
		root.end()
		if tr != nil {
			sweepsTraced = append(sweepsTraced, time.Since(s0).Seconds())
		} else {
			sweeps = append(sweeps, time.Since(s0).Seconds())
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	b.setSample("write_MBps", wallS)
	b.setSample("hdfs_write_MBps", wallH)
	b.set("file_ops_per_s", float64(runs)/elapsed.Seconds())
	// A simulated upload's lifecycle is its sim.Run call.
	b.setSample("file_p50_ms", lifeS)
	b.setSample("sim_sweep_s", sweeps)
	if len(sweeps) > 0 && len(sweepsTraced) > 0 {
		b.set("trace.overhead_pct", 100*(median(sweepsTraced)/median(sweeps)-1))
	}
	b.set("sim.packet_hops_per_s", hops/simWall.Seconds())
	b.set("runtime.alloc_B_per_payload_B", float64(after.TotalAlloc-before.TotalAlloc)/float64(simBytes))
	b.set("runtime.gc_cycles_per_GB", float64(after.NumGC-before.NumGC)/(float64(simBytes)/1e9))
	setSimPair(b, results[simCase{100, proto.ModeHDFS}], results[simCase{100, proto.ModeSmarth}])
	return nil
}

// setSimPair records the per-layer figures of one HDFS/SMARTH pair.
func setSimPair(b *bench, h, s sim.Result) {
	b.set("sim.smarth_virtual_s", s.Duration.Seconds())
	b.set("sim.hdfs_virtual_s", h.Duration.Seconds())
	b.set("paper.sim_speedup", h.Duration.Seconds()/s.Duration.Seconds())
	b.set("sim.peak_pipelines", float64(s.PeakPipelines))
	b.set("policy.first_node_spread", float64(len(s.FirstDatanodeUse)))
}

// simTwin runs the paper-scale experiment a shaped live workload scales
// down, an 8 GB upload at the same cross-rack throttle, so the traced
// live run reports the simulator's figures beside its own.
func simTwin(b *bench, crossMbps float64) error {
	var res [2]sim.Result
	var wall time.Duration
	var hops float64
	for i, mode := range []proto.WriteMode{proto.ModeHDFS, proto.ModeSmarth} {
		c := simCase{crossMbps, mode}
		cfg := c.config()
		t0 := time.Now()
		r, err := sim.Run(cfg)
		wall += time.Since(t0)
		if err == nil {
			err = checkCase(c, r)
		}
		if b.op(err) != nil {
			return err
		}
		res[i] = r
		hops += egressHops(r, proto.DefaultPacketSize)
	}
	b.set("sim.packet_hops_per_s", hops/wall.Seconds())
	setSimPair(b, res[0], res[1])
	return nil
}
