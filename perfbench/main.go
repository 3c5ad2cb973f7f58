// Command perfbench is the repository's benchmark: one process runs one
// named workload in a closed loop against the public APIs of the
// cluster, client, sim, checksum, proto, transport and storage packages,
// checks every output, and prints its metrics. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set, measured with
// tracing off. With -trace 1 they are the per-layer set: the run wraps
// each public call in a benchmark-side span, writes the spans as JSONL
// under -out, prints a self-time table, and times each layer alone on
// the workload's pre-generated payload.
//
// BENCHMARK.json names the two shaped workloads, paper-throttled and
// paper-unthrottled: their time is set by the shaped links, so their
// figures repeat on a shared host. tcp-bulk, small-files and sim-paper
// are CPU-bound and run the same way by hand; on a 2-vCPU host whose
// neighbours steal CPU their figures swing by up to 2x between runs,
// too much to bound a regression.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench -workload paper-throttled -seed 1 -seconds 30 -trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed with
// -trace 0. On sim-paper the system under test is the simulator, so an
// upload's time is the wall time of the sim.Run call that simulates it.
var endToEnd = []metricDef{
	{"write_MBps", "MB/s"},      // SMARTH payload MB/s, Create to Close, median over files
	{"hdfs_write_MBps", "MB/s"}, // the same for HDFS mode
	{"read_MBps", "MB/s"},       // verified streaming read, median over files
	{"file_ops_per_s", "1/s"},   // files (or simulated uploads) completed per second
	{"file_p50_ms", "ms"},       // median SMARTH file lifecycle, create to delete
	{"setup_s", "s"},            // median over the run's set-ups
	{"peak_rss_MB", "MB"},       // the process's peak resident set
}

// perLayer are printed with -trace 1. A metric the workload cannot
// measure (its layer is not exercised) reads 0 and is marked "not
// measured". Tail percentiles (file_p99_ms, namenode.getfileinfo_p99_us)
// and sim_sweep_s are reported only by the hand-run workloads with
// enough samples, after the metrics below.
var perLayer = []metricDef{
	{"failed_ratio", "ratio"},
	{"paper.live_speedup", "x"},
	{"paper.sim_speedup", "x"},
	{"client.create_ms", "ms"},
	{"client.write_blocked_share", "ratio"},
	{"client.close_ms", "ms"},
	{"client.open_first_byte_ms", "ms"},
	{"client.peak_pipelines", "count"},
	{"client.recoveries", "count"},
	{"namenode.getfileinfo_p50_us", "us"},
	{"namenode.delete_p50_us", "us"},
	{"namenode.list_ms", "ms"},
	{"checksum.sum_MBps", "MB/s"},
	{"checksum.verify_MBps", "MB/s"},
	{"proto.packet_rt_us", "us"},
	{"proto.allocs_per_packet", "count"},
	{"transport.tcp_copy_MBps", "MB/s"},
	{"transport.write_of_ceiling", "ratio"},
	{"transport.tcp_dial_us", "us"},
	{"datanode.single_hop_MBps", "MB/s"},
	{"storage.memstore_write_MBps", "MB/s"},
	{"shaper.crossrack_util", "ratio"},
	{"sim.peak_pipelines", "count"},
	{"policy.first_node_spread", "count"},
	{"sim.packet_hops_per_s", "1/s"},
	{"sim.smarth_virtual_s", "virtual_s"},
	{"sim.hdfs_virtual_s", "virtual_s"},
	{"workload.gen_MBps", "MB/s"},
	{"runtime.alloc_B_per_payload_B", "ratio"},
	{"runtime.gc_cycles_per_GB", "1/GB"},
	{"trace.overhead_pct", "%"},
}

// setupReps is how many times a run sets its workload up; setup_s is
// the median, and the last set-up is the one measured.
const setupReps = 5

// bench carries one run's settings and collects its results.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	outDir   string

	attempted, failed int
	metrics           map[string]float64
	spread            map[string]summary
	tr                *tracer // nil unless -trace 1
	notes             []string
}

func (b *bench) set(name string, v float64) { b.metrics[name] = v }

// setSample records a sample's median as the metric and keeps its
// spread for the report. An empty sample records nothing.
func (b *bench) setSample(name string, xs []float64) {
	if len(xs) == 0 {
		return
	}
	s := summarize(xs)
	b.metrics[name] = s.Median
	b.spread[name] = s
}

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// op counts one checked operation; a non-nil err counts as a failure.
func (b *bench) op(err error) error {
	b.attempted++
	if err != nil {
		b.failed++
		b.note("FAILED: %v", err)
	}
	return err
}

func main() {
	name := flag.String("workload", "", "paper-throttled | paper-unthrottled | tcp-bulk | small-files | sim-paper")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 30, "length of the measured loop")
	traceOn := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	outDir := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span JSONL")
	flag.Parse()

	b := &bench{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *traceOn == 1,
		outDir:   *outDir,
		metrics:  make(map[string]float64),
		spread:   make(map[string]summary),
	}
	if b.trace {
		b.tr = newTracer()
	}
	cpu0 := readCPUTicks()
	var err error
	switch b.workload {
	case "paper-throttled", "paper-unthrottled", "tcp-bulk", "small-files":
		err = runLive(b, liveSpecs[b.workload])
	case "sim-paper":
		err = runSimPaper(b)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", b.workload)
		os.Exit(2)
	}
	if err == nil && b.attempted == 0 {
		err = fmt.Errorf("no operation was attempted")
	}
	if err != nil && b.failed == 0 {
		// A set-up or harness error, not a checked operation: no result.
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		os.Exit(1)
	}
	if steal, ok := stealShare(cpu0, readCPUTicks()); ok {
		// Other tenants of a shared host slow CPU-bound workloads; say so
		// beside the figures they affect.
		b.note("host: %.1f%% of CPU time was stolen by the hypervisor during this run", 100*steal)
	}
	b.set("peak_rss_MB", peakRSSMB())
	if b.attempted > 0 {
		b.set("failed_ratio", float64(b.failed)/float64(b.attempted))
	}
	if b.trace {
		if err := b.writeTrace(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}
	if err := b.emit(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if b.failed > 0 {
		os.Exit(1)
	}
}

// writeTrace writes the spans as JSONL and prints the self-time table.
func (b *bench) writeTrace() error {
	recs := b.tr.records()
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(b.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", b.workload, b.seed))
	if err := writeJSONL(path, recs); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("# %d spans written to %s\n", len(recs), path)
	fmt.Println("# per-layer self time over the traced files:")
	printLayerTable(os.Stdout, selfTimes(recs))
	return nil
}

// emit prints the human-readable report and, last, the JSON result.
func (b *bench) emit() error {
	defs := endToEnd
	if b.trace {
		defs = perLayer
	}
	out := make(map[string]any, len(defs))
	fmt.Printf("# workload %s  seed %d  seconds %.0f  trace %v\n", b.workload, b.seed, b.seconds.Seconds(), b.trace)
	for _, n := range b.notes {
		fmt.Printf("# %s\n", n)
	}
	for _, d := range defs {
		v, ok := b.metrics[d.name]
		if ok {
			line := fmt.Sprintf("%-30s %14.6g %-9s", d.name, v, d.unit)
			if s, ok := b.spread[d.name]; ok {
				line += "  " + s.String()
			}
			fmt.Println(line)
		} else {
			fmt.Printf("%-30s %14d %-9s  not measured on %s\n", d.name, 0, d.unit, b.workload)
		}
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	// Metrics outside the printed set are still shown for the record.
	var extra []string
	for k := range b.metrics {
		if !inDefs(k, defs) {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		fmt.Printf("# also %-23s %14.6g\n", k, b.metrics[k])
	}
	res, err := json.Marshal(map[string]any{
		"correct":   b.failed == 0,
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(res))
	return nil
}

func inDefs(name string, defs []metricDef) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / 1e6
}

// readCPUTicks returns the aggregate CPU line of /proc/stat (user, nice,
// system, idle, iowait, irq, softirq, steal, ...), or nil off Linux.
func readCPUTicks() []int64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return nil
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return nil
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return nil
	}
	var ticks []int64
	for _, s := range fields[1:] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil
		}
		ticks = append(ticks, v)
	}
	return ticks
}

// stealShare is the share of all CPU ticks between two readings that
// the hypervisor stole.
func stealShare(a, b []int64) (float64, bool) {
	if len(a) < 8 || len(a) != len(b) {
		return 0, false
	}
	var total int64
	for i := range a {
		total += b[i] - a[i]
	}
	if total <= 0 {
		return 0, false
	}
	return float64(b[7]-a[7]) / float64(total), true
}
