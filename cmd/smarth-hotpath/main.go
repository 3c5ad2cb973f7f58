// Command smarth-hotpath measures the hot data path — the packet codec
// in isolation, a live 64 MB upload through the full stack in both
// protocols over the in-memory transport, and the same upload over real
// loopback TCP sockets next to a raw io.Copy reference ceiling — and
// records the results as BENCH_hotpath.json, so the allocation profile
// and throughput of the data path are tracked across changes.
//
// Usage:
//
//	smarth-hotpath                     # run and update BENCH_hotpath.json
//	smarth-hotpath -out path.json      # write elsewhere
//	smarth-hotpath -file-mb 16         # smaller live upload
//	smarth-hotpath -check              # regression-guard against the
//	                                   # committed JSON (no rewrite)
//	smarth-hotpath -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//
// If the output file already exists, its "baseline" entry is preserved
// (the numbers recorded before the zero-allocation rework); otherwise
// the current run seeds the baseline. The "current" entry is always
// overwritten, so the JSON reads as before-vs-now.
//
// In -check mode nothing is written: every suite benchmark is re-run
// and compared with its "current" entry in the committed file. A suite
// benchmark with no recorded entry, or a recorded entry with no suite
// benchmark, fails the check, so a rename cannot silently drop a gate
// (the live-upload names carry the size, so -check runs at the recorded
// 64 MB).
// Allocation counts are a tight gate (they are deterministic); MB/s is
// a loose one (-check-frac, default 0.5, i.e. fail under half the
// recorded throughput) because shared CI machines are noisy.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"
	"testing"

	"repro/internal/client"
	"repro/internal/hotbench"
	"repro/internal/proto"
)

// Result is one benchmark's steady-state cost.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BPerOp      int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	MBPerS      float64 `json:"mb_per_s,omitempty"`
	// Control-plane benchmarks (CtrlPlane*) report namenode throughput in
	// RPCs per second and the client-observed addBlock latency quantiles
	// instead of MB/s.
	RPCsPerS      float64 `json:"rpcs_per_s,omitempty"`
	AddBlockP50NS float64 `json:"addblock_p50_ns,omitempty"`
	AddBlockP99NS float64 `json:"addblock_p99_ns,omitempty"`
}

// Report is the BENCH_hotpath.json document.
type Report struct {
	// Baseline holds the pre-change numbers and is preserved across
	// runs; Current is overwritten every run.
	Baseline []Result `json:"baseline"`
	Current  []Result `json:"current"`
}

// reps is how many times the suite runs each benchmark, keeping the
// best (fastest, fewest-alloc) result per benchmark. Throughput on a
// shared single-core runner swings 2x between back-to-back runs of
// identical code; the number worth recording is the capability
// ceiling, not the scheduler's mood on one particular second. The
// repetitions interleave across the whole suite — rep 1 of every
// benchmark, then rep 2, and so on — so benchmarks that are compared
// against each other (the live TCP upload vs the raw-copy ceiling)
// sample the same slow-minute/fast-minute weather in every rep,
// instead of each cherry-picking its best from a different window.
var reps = 3

// runOnce executes one repetition of one benchmark. benchtime, when
// non-empty, pins -test.benchtime for it: the heavyweight live uploads
// take ~0.5 s/op, so the default 1 s budget would time only 2-3
// iterations — too few to average over shared-runner throughput swings
// — and, worse, would give the raw io.Copy reference more iterations
// than the live path it is the ceiling for. Pinning both to the same
// iteration count makes the live/raw ratio a same-conditions
// comparison.
func runOnce(name string, fn func(b *testing.B), benchtime string) (Result, bool) {
	if benchtime != "" {
		flag.Set("test.benchtime", benchtime)
		defer flag.Set("test.benchtime", "1s")
	}
	r := testing.Benchmark(fn)
	if r.N == 0 {
		// The benchmark body failed (b.Fatal). A zero result would poison
		// the best-of merge with NaN ns/op and 0 B/op mins — skip the rep.
		return Result{Name: name}, false
	}
	one := Result{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BPerOp:      r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
	if r.Bytes > 0 && r.T > 0 {
		one.MBPerS = (float64(r.Bytes) * float64(r.N) / 1e6) / r.T.Seconds()
	}
	one.RPCsPerS = r.Extra["rpcs/s"]
	one.AddBlockP50NS = r.Extra["addblock-p50-ns"]
	one.AddBlockP99NS = r.Extra["addblock-p99-ns"]
	return one, true
}

// merge folds one repetition into the best-so-far result.
func merge(res *Result, one Result) {
	if one.NsPerOp < res.NsPerOp {
		res.NsPerOp = one.NsPerOp
		res.MBPerS = one.MBPerS
	}
	if one.BPerOp < res.BPerOp {
		res.BPerOp = one.BPerOp
	}
	if one.AllocsPerOp < res.AllocsPerOp {
		res.AllocsPerOp = one.AllocsPerOp
	}
	if one.RPCsPerS > res.RPCsPerS {
		// The latency quantiles travel with the best-throughput rep: they
		// describe the same run, not a min over incomparable runs.
		res.RPCsPerS = one.RPCsPerS
		res.AddBlockP50NS = one.AddBlockP50NS
		res.AddBlockP99NS = one.AddBlockP99NS
	}
}

func printResult(res Result) {
	fmt.Printf("%-32s %14.0f ns/op %12d B/op %8d allocs/op",
		res.Name, res.NsPerOp, res.BPerOp, res.AllocsPerOp)
	if res.MBPerS > 0 {
		fmt.Printf(" %8.1f MB/s", res.MBPerS)
	}
	if res.RPCsPerS > 0 {
		fmt.Printf(" %8.0f rpcs/s  p50 %.0fus p99 %.0fus",
			res.RPCsPerS, res.AddBlockP50NS/1e3, res.AddBlockP99NS/1e3)
	}
	fmt.Println()
}

// benchFilter, when non-nil, restricts the suite to matching benchmark
// names (-run). Record mode merges the skipped benchmarks' entries from
// the existing JSON so a focused re-record never drops data.
var benchFilter *regexp.Regexp

// runSuite runs every benchmark reps times, interleaved (see reps),
// and returns the per-benchmark bests in suite order.
func runSuite(fileBytes int64) []Result {
	bs := benches(fileBytes)
	if benchFilter != nil {
		kept := bs[:0]
		for _, b := range bs {
			if benchFilter.MatchString(b.name) {
				kept = append(kept, b)
			}
		}
		bs = kept
	}
	results := make([]Result, len(bs))
	seeded := make([]bool, len(bs))
	for j, b := range bs {
		results[j].Name = b.name
	}
	for i := 0; i < reps; i++ {
		for j, b := range bs {
			one, ok := runOnce(b.name, b.fn, b.benchtime)
			if !ok {
				fmt.Printf("  rep %d/%d %-32s FAILED (rep skipped)\n", i+1, reps, b.name)
				continue
			}
			if one.MBPerS > 0 {
				fmt.Printf("  rep %d/%d %-32s %8.1f MB/s\n", i+1, reps, b.name, one.MBPerS)
			} else {
				fmt.Printf("  rep %d/%d %-32s %12.0f ns/op\n", i+1, reps, b.name, one.NsPerOp)
			}
			if !seeded[j] {
				results[j] = one
				seeded[j] = true
			} else {
				merge(&results[j], one)
			}
		}
	}
	for _, r := range results {
		printResult(r)
	}
	return results
}

// benches enumerates the benchmark suite at one live-upload size. The
// "6x" benchtime on the uploads and the raw-copy reference pins both
// sides of the live/raw throughput ratio to the same iteration count
// (see run).
func benches(fileBytes int64) []struct {
	name      string
	fn        func(b *testing.B)
	benchtime string
} {
	mb := fileBytes >> 20
	n := func(format string) string { return fmt.Sprintf(format, mb) }
	return []struct {
		name      string
		fn        func(b *testing.B)
		benchtime string
	}{
		{"PacketRoundTrip", hotbench.PacketRoundTrip, ""},
		{"AckRoundTrip", hotbench.AckRoundTrip, ""},
		{n("LiveWrite%dMB/SMARTH"), func(b *testing.B) { hotbench.LiveWrite(b, proto.ModeSmarth, fileBytes) }, "6x"},
		{n("LiveWrite%dMB/HDFS"), func(b *testing.B) { hotbench.LiveWrite(b, proto.ModeHDFS, fileBytes) }, "6x"},
		{n("LiveRead%dMB/SMARTH"), func(b *testing.B) { hotbench.LiveRead(b, client.ReadOptions{}, fileBytes) }, ""},
		{n("LiveRead%dMB/HDFS"), func(b *testing.B) {
			hotbench.LiveRead(b, client.ReadOptions{DisablePrefetch: true, HedgeAfter: -1}, fileBytes)
		}, ""},
		{n("RawCopy%dMB/TCP"), func(b *testing.B) { hotbench.RawCopyTCP(b, fileBytes) }, "6x"},
		{n("LiveWrite%dMB/SMARTH-TCP"), func(b *testing.B) { hotbench.LiveWriteTCP(b, proto.ModeSmarth, fileBytes, 1) }, "6x"},
		{n("LiveWrite%dMB/SMARTH-TCP-R3"), func(b *testing.B) { hotbench.LiveWriteTCP(b, proto.ModeSmarth, fileBytes, 3) }, "6x"},
		{n("LiveRead%dMB/SMARTH-TCP"), func(b *testing.B) { hotbench.LiveReadTCP(b, client.ReadOptions{}, fileBytes) }, ""},
		{"CtrlPlane64W", hotbench.ControlPlane, "3x"},
	}
}

func main() {
	testing.Init() // registers -test.benchtime so run can pin it per benchmark
	out := flag.String("out", "BENCH_hotpath.json", "output JSON path")
	fileMB := flag.Int64("file-mb", 64, "live-upload file size in MB")
	check := flag.Bool("check", false, "re-run and compare against the committed JSON instead of rewriting it")
	checkFrac := flag.Float64("check-frac", 0.5, "-check fails a benchmark below this fraction of its recorded MB/s")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile covering the whole run")
	memprofile := flag.String("memprofile", "", "write an allocation profile taken after the run")
	flag.IntVar(&reps, "reps", reps, "runs per benchmark; the best run is recorded")
	runRe := flag.String("run", "", "regexp selecting which benchmarks run; record mode keeps the existing JSON entries for the rest")
	flag.Parse()
	if reps < 1 {
		reps = 1
	}
	if *runRe != "" {
		re, err := regexp.Compile(*runRe)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-run: %v\n", err)
			os.Exit(1)
		}
		benchFilter = re
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	if *check {
		code := runCheck(*out, *fileMB<<20, *checkFrac)
		if *cpuprofile != "" {
			pprof.StopCPUProfile() // os.Exit skips the defer
		}
		writeMemProfile(*memprofile)
		os.Exit(code)
	}

	var report, old Report
	if prev, err := os.ReadFile(*out); err == nil {
		if json.Unmarshal(prev, &old) == nil {
			report.Baseline = old.Baseline
		}
	}

	report.Current = runSuite(*fileMB << 20)
	if benchFilter != nil {
		// Focused re-record: carry over the committed entries for every
		// benchmark the filter skipped, in their committed order.
		fresh := make(map[string]Result, len(report.Current))
		for _, r := range report.Current {
			fresh[r.Name] = r
		}
		merged := make([]Result, 0, len(old.Current)+len(report.Current))
		for _, r := range old.Current {
			if nr, ok := fresh[r.Name]; ok {
				r = nr
				delete(fresh, r.Name)
			}
			merged = append(merged, r)
		}
		for _, r := range report.Current {
			if _, ok := fresh[r.Name]; ok {
				merged = append(merged, r)
			}
		}
		report.Current = merged
	}
	if report.Baseline == nil {
		report.Baseline = report.Current
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
	writeMemProfile(*memprofile)
}

// runCheck re-runs the suite against the committed report and fails
// (returns 1) when a suite benchmark and the recorded rows do not pair
// up one to one (names a -run filter skips are exempt), or on
// regression. Allocations gate tightly: allowed = recorded*1.10 + 64
// ops of slack (the live benches jitter by a few dozen allocs with
// goroutine scheduling). Throughput gates loosely at frac of the
// recorded MB/s. ns/op is reported but never gates — wall
// clock on shared machines is not comparable.
func runCheck(path string, fileBytes int64, frac float64) int {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-check: read %s: %v\n", path, err)
		return 1
	}
	var committed Report
	if err := json.Unmarshal(raw, &committed); err != nil {
		fmt.Fprintf(os.Stderr, "-check: parse %s: %v\n", path, err)
		return 1
	}
	recorded := make(map[string]Result, len(committed.Current))
	for _, r := range committed.Current {
		recorded[r.Name] = r
	}

	// Pair suite names with recorded rows before spending minutes on
	// the suite: an unmatched name on either side would skip a gate.
	selected := func(name string) bool { return benchFilter == nil || benchFilter.MatchString(name) }
	inSuite := make(map[string]bool)
	unmatched := 0
	for _, b := range benches(fileBytes) {
		inSuite[b.name] = true
		if _, ok := recorded[b.name]; !ok && selected(b.name) {
			fmt.Printf("  FAIL %s: no recorded row in %s\n", b.name, path)
			unmatched++
		}
	}
	for _, r := range committed.Current {
		if !inSuite[r.Name] && selected(r.Name) {
			fmt.Printf("  FAIL %s: recorded in %s but not in the suite\n", r.Name, path)
			unmatched++
		}
	}
	if unmatched > 0 {
		fmt.Printf("-check: %d benchmark name(s) unmatched against %s\n", unmatched, path)
		return 1
	}

	failed := 0
	for _, got := range runSuite(fileBytes) {
		want := recorded[got.Name]
		allocBudget := want.AllocsPerOp + want.AllocsPerOp/10 + 64
		if got.AllocsPerOp > allocBudget {
			fmt.Printf("  FAIL %s: %d allocs/op, recorded %d (budget %d)\n",
				got.Name, got.AllocsPerOp, want.AllocsPerOp, allocBudget)
			failed++
		}
		if want.MBPerS > 0 && got.MBPerS < want.MBPerS*frac {
			fmt.Printf("  FAIL %s: %.1f MB/s, recorded %.1f (floor %.1f)\n",
				got.Name, got.MBPerS, want.MBPerS, want.MBPerS*frac)
			failed++
		}
		// Control-plane throughput gates like MB/s: loose, because shared
		// runners are noisy; the addBlock quantiles are informational.
		if want.RPCsPerS > 0 && got.RPCsPerS < want.RPCsPerS*frac {
			fmt.Printf("  FAIL %s: %.0f rpcs/s, recorded %.0f (floor %.0f)\n",
				got.Name, got.RPCsPerS, want.RPCsPerS, want.RPCsPerS*frac)
			failed++
		}
	}
	if failed > 0 {
		fmt.Printf("-check: %d regression(s) against %s\n", failed, path)
		return 1
	}
	fmt.Printf("-check: all benchmarks within budget of %s\n", path)
	return 0
}

func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
