// Command perfbench is the serving benchmark: it runs one workload from
// a seed against the simulator's packages, checks the outputs, and
// prints every metric by name with its unit and sample count. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// every probe off; with --trace 1 they are the per-layer ones, measured
// with the timing wrappers, the trace recorders and the CPU profiler on.
// METRICS.md maps each per-layer metric to the end-to-end metric it
// should move.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload replay-steady --seed 1 --seconds 25 --trace 0 [--out DIR]
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"replay-steady", "tenant-slo", "fleet-sweep", "http-chat"}

func simWorkloadByName(name string) (simWorkload, bool) {
	switch name {
	case "replay-steady":
		return replaySteady(), true
	case "tenant-slo":
		return tenantSLO(), true
	case "fleet-sweep":
		return fleetSweep(), true
	}
	return simWorkload{}, false
}

// metricOut is one metric of the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// provenance identifies what produced a result: numbers compare only
// within one provenance class.
type provenance struct {
	Revision   string         `json:"revision"`
	Modified   bool           `json:"modified"`
	GoVersion  string         `json:"go_version"`
	CPU        string         `json:"cpu"`
	NumCPU     int            `json:"num_cpu"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Traced     bool           `json:"traced"`
	Params     map[string]any `json:"params"`
	Digest     string         `json:"digest,omitempty"`
	Samples    map[string]int `json:"samples"`
	Start      time.Time      `json:"start"`
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 25, "measurement time in seconds")
	traced := flag.Int("trace", 0, "1 for the traced per-layer run, 0 for the end-to-end run")
	outDir := flag.String("out", "", "directory to write the result and provenance JSON to (nothing is written when empty)")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if err := run(*workload, *seed, *seconds, *traced == 1, *outDir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool, outDir string) error {
	budget := time.Duration(seconds) * time.Second
	prov := provenance{
		GoVersion: runtime.Version(), CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workload: name, Seed: seed, Seconds: seconds, Traced: traced, Start: time.Now().UTC(),
	}
	prov.Revision, prov.Modified = vcsRevision()

	var out *runOutcome
	var err error
	if w, ok := simWorkloadByName(name); ok {
		prov.Params = w.params
		if traced {
			out, err = runSimTraced(w, seed, budget)
		} else {
			out, err = runSimUntraced(w, seed, budget)
		}
	} else if name == "http-chat" {
		prov.Params = map[string]any{
			"adapters": httpAdapters, "rate": httpRate, "bodies": httpBodies, "warmup": httpWarmup,
			"setup_repeats": httpSetupRepeats, "connections": runtime.GOMAXPROCS(0), "window_s": window.Seconds(),
		}
		out, err = runHTTP(seed, budget, traced)
	} else {
		return fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		// A failed run prints no result line.
		if out != nil {
			fmt.Printf("failed %d of %d attempted\n", out.failed, out.attempted)
		}
		return err
	}

	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricOut{}}
	prov.Digest = out.digest
	prov.Samples = map[string]int{}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok && !traced {
			return fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricOut{Value: v.value, Unit: d.unit}
		prov.Samples[d.name] = v.samples
		fmt.Printf("%-28s %14.6g %-6s from n=%d\n", d.name, v.value, d.unit, v.samples)
	}
	provLine, err := json.Marshal(map[string]any{"provenance": prov})
	if err != nil {
		return err
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if outDir != "" {
		if err := writeOut(outDir, name, seed, traced, provLine, resLine); err != nil {
			return err
		}
	}
	fmt.Println(string(provLine))
	fmt.Println(string(resLine))
	return nil
}

// writeOut stores the provenance and result lines under dir.
func writeOut(dir, name string, seed int64, traced bool, lines ...[]byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if traced {
		mode = "traced"
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s-%s.jsonl", name, seed, mode, time.Now().UTC().Format("20060102T150405Z")))
	var buf []byte
	for _, l := range lines {
		buf = append(append(buf, l...), '\n')
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// vcsRevision reports the git revision the binary was built from. A
// build outside a git checkout records none; the revision is then a
// digest of the Go sources under the working directory.
func vcsRevision() (rev string, modified bool) {
	rev = "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	if rev == "unknown" {
		rev = sourceDigest(".")
	}
	return rev, modified
}

// sourceDigest hashes every .go and go.mod file under root, skipping
// hidden directories such as the build output.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("tree:%x", h.Sum(nil)[:10])
}

// cpuModel reads the processor model name on Linux.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
