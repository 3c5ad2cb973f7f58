// Policy-comparison matrix: every built-in write policy (internal/policy)
// runs the same simulated workloads — clean two-rack, one throttled
// datanode, a mid-write pipeline failure, and two multi-client runs on a
// heterogeneous 24-datanode cluster — so the policies' throughput and
// recovery behavior can be judged side by side on identical seeds.
package main

import (
	"fmt"
	"strings"

	"repro/internal/ec2"
	"repro/internal/policy"
	"repro/internal/proto"
	"repro/internal/sim"
)

// policyScenario is one workload of the matrix; the base config is
// replayed once per policy with only Config.Policy changing. clients
// concurrent writers each upload cfg.FileSize.
type policyScenario struct {
	name    string
	cfg     sim.Config
	clients int
}

// policyScenarios builds the matrix's workload column. scale divides the
// file size like the figure sweeps (scale 1 = 1 GB, 16 blocks, per
// single-client upload; 2 GB per client on the 24-datanode cluster).
func policyScenarios(scale int64) []policyScenario {
	size := (int64(1) << 30) / scale
	base := func() sim.Config {
		return sim.Config{
			Preset:   ec2.SmallCluster,
			FileSize: size,
			Mode:     proto.ModeSmarth,
			Seed:     21,
		}
	}
	clean := base()
	throttled := base()
	throttled.NodeLimitMbps = map[int]float64{2: 20}
	// The fault hits block 0 so it exists at any -scale (a deep scale
	// divide can shrink the file to a single block).
	fault := base()
	fault.PipelineFaults = []sim.PipelineFault{{Block: 0, AfterPackets: 128, BadIndex: -1}}

	// hetero24 interleaves small, medium and large datanodes, so NIC
	// speeds differ and history-aware head selection has real choices.
	hetero24 := make([]ec2.InstanceType, 24)
	for i := range hetero24 {
		hetero24[i] = ec2.Types[i%len(ec2.Types)]
	}
	hetero := func() sim.Config {
		cfg := base()
		cfg.Preset = ec2.ClusterPreset{Name: "hetero24", Datanodes: hetero24, Client: ec2.Medium}
		cfg.FileSize = 2 * size
		return cfg
	}
	threeRack := hetero()
	threeRack.NumRacks = 3
	threeRack.CrossRackMbps = 100
	slow6 := hetero()
	slow6.NodeLimitMbps = map[int]float64{1: 20, 5: 20, 9: 20, 13: 20, 17: 20, 21: 20}
	return []policyScenario{
		{name: "clean", cfg: clean, clients: 1},
		{name: "throttled-dn3", cfg: throttled, clients: 1},
		{name: "pipeline-fault", cfg: fault, clients: 1},
		{name: "hetero-3rack", cfg: threeRack, clients: 4},
		{name: "hetero-slow6", cfg: slow6, clients: 4},
	}
}

// runPolicyMatrix renders the policies × workloads table. Every cell is
// one full simulated run; the makespan, aggregate goodput and the
// writers' total Algorithm 3 recovery count are recorded per cell.
func runPolicyMatrix(scale int64) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Policy comparison (SMARTH uploads; MB is per client):\n")
	fmt.Fprintf(&b, "%-16s %-12s %7s %6s %9s %8s %11s\n", "scenario", "policy", "clients", "MB", "seconds", "MB/s", "recoveries")
	for _, sc := range policyScenarios(scale) {
		for _, name := range policy.Names() {
			cfg := sc.cfg
			cfg.Policy = name
			m, err := sim.RunMulti(cfg, sc.clients)
			if err != nil {
				return "", fmt.Errorf("policy matrix %s/%s: %w", sc.name, name, err)
			}
			recoveries := 0
			for _, r := range m.PerClient {
				recoveries += r.Recoveries
			}
			fmt.Fprintf(&b, "%-16s %-12s %7d %6d %9.1f %8.1f %11d\n",
				sc.name, name, sc.clients, cfg.FileSize>>20, m.Makespan.Seconds(), m.AggregateMBps(), recoveries)
		}
	}
	return b.String(), nil
}
