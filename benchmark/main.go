// Command benchmark is the repository's performance benchmark: it
// builds cmd/snapserve, spawns the real binary per workload, drives it
// over loopback HTTP from this one generator process, checks the
// answers against an in-process oracle, and prints every declared
// metric by name. A second, traced mode times the same operations at
// every layer boundary by calling the layers' public functions.
//
//	bash benchmark/run.sh                         all four workloads, 5 s warm-up + 30 s window
//	bash benchmark/run.sh -trace 1                ladder + spans + per-layer metrics
//	bash benchmark/run.sh -workload read-hot -seed 7 -seconds 15 -trace 0
//	bash benchmark/run.sh -validate
//	bash benchmark/run.sh -compare a.json b.json
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// env records where a result was measured.
type env struct {
	Cores      int     `json:"cores"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Date       string  `json:"date"`
	Seed       uint64  `json:"seed"`
	Scale      int     `json:"scale"`
	EdgeFactor int     `json:"edgefactor"`
	WindowS    float64 `json:"window_s"`
	WarmupS    float64 `json:"warmup_s"`
}

// resultFile is benchmark/out/result.json. Claim is always null: the
// benchmark measures, it does not claim.
type resultFile struct {
	Env       env               `json:"env"`
	Trace     bool              `json:"trace"`
	Workloads []*workloadResult `json:"workloads"`
	Claim     *string           `json:"claim"`
}

// driverLine is the one JSON object a single-workload run prints last.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "", "run one workload and end with the one-line JSON result; empty runs all four")
		seed     = flag.Uint64("seed", 1, "seeds the graph (snapserve -seed), the op stream, the source pool and the churn stream")
		seconds  = flag.Int("seconds", 30, "measured window in whole seconds; the warm-up before it is a sixth of that")
		trace    = flag.Int("trace", 0, "1 runs the traced mode: the layer ladder, spans, and every per-layer metric")
		scale    = flag.Int("scale", 16, "R-MAT scale of the served graph (the smoke pass uses 10)")
		outDir   = flag.String("out", filepath.Join("benchmark", "out"), "output directory")
		validate = flag.Bool("validate", false, "check BENCHMARK.json against the contract's limits, and any result files named after it for every declared metric")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()

	// run.sh starts the program in the repository root.
	const root = "."
	specPath := filepath.Join(root, "BENCHMARK.json")
	if *validate {
		return validateFiles(os.Stdout, specPath, flag.Args())
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two result files")
			return 2
		}
		return compareFiles(os.Stdout, specPath, flag.Arg(0), flag.Arg(1))
	}

	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 1")
		return 2
	}
	window := time.Duration(*seconds) * time.Second
	defs := allWorkloads()
	if *workload != "" {
		def := lookupWorkload(*workload)
		if def == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			return 2
		}
		defs = []*workloadDef{def}
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	file, err := execute(options{
		root: root, outDir: *outDir, seed: *seed, scale: *scale,
		window: window, warmup: window / 6, setups: setupRuns, trace: *trace != 0,
	}, sp, defs, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	code := 0
	for _, res := range file.Workloads {
		if !res.Correct {
			code = 1
		}
	}
	if *workload == "" {
		fmt.Println(`{"claim": null}`)
		return code
	}
	// The driver's contract: last line, exactly these keys, the declared
	// metrics of the mode that ran.
	line, err := sp.driverLine(file.Workloads[0], file.Trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	b, _ := json.Marshal(line)
	fmt.Println(string(b))
	return code
}

// setupRuns is how many server start-ups a run times; setup_s is their
// median.
const setupRuns = 3

// options is one invocation's settings.
type options struct {
	root   string // repository root
	bin    string // prebuilt snapserve (the tests build one); empty builds cmd/snapserve
	outDir string
	seed   uint64
	scale  int
	window time.Duration
	warmup time.Duration
	setups int
	trace  bool
}

// execute runs the given workloads in one mode, prints every metric to
// w, and writes the result file (and, traced, the span files) to
// o.outDir.
func execute(o options, sp *spec, defs []*workloadDef, w io.Writer) (*resultFile, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(o.outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	bin := o.bin
	if bin == "" {
		bin = filepath.Join(tmp, "snapserve")
		build := exec.Command("go", "build", "-o", bin, "./cmd/snapserve")
		build.Dir = o.root
		if out, err := build.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("building cmd/snapserve: %w\n%s", err, out)
		}
	}
	if bin, err = filepath.Abs(bin); err != nil {
		return nil, err
	}

	in, err := makeGraphInput(o.scale, o.seed)
	if err != nil {
		return nil, err
	}
	cfg := runConfig{bin: bin, tmp: tmp, in: in, seed: o.seed,
		warmup: o.warmup, window: o.window, setups: o.setups}

	file := &resultFile{Trace: o.trace, Env: env{
		Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(o.root), Date: time.Now().UTC().Format(time.RFC3339),
		Seed: o.seed, Scale: o.scale, EdgeFactor: edgeFactor,
		WindowS: o.window.Seconds(), WarmupS: o.warmup.Seconds(),
	}}
	var ladder map[string]metric
	if o.trace {
		// The ladder does not depend on the workload: measure it once.
		if ladder, err = runLadder(in, tmp, w); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		// The traced mode needs the spawned server only for the
		// counters scraped from outside; a third of the window does.
		cfg.window = max(time.Second, cfg.window/3)
		cfg.warmup = max(time.Second, cfg.warmup/3)
		cfg.setups = 1
	}
	for _, def := range defs {
		res, err := runWorkload(def, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", def.name, err)
		}
		if o.trace {
			for name, m := range ladder {
				res.PerLayer[name] = m
			}
			if err := runSpans(def, in, o.seed, tmp, o.outDir, res, w); err != nil {
				return nil, fmt.Errorf("%s spans: %w", def.name, err)
			}
		}
		printResult(w, sp, res, o.trace)
		file.Workloads = append(file.Workloads, res)
	}

	name := "result.json"
	if o.trace {
		name = "result-trace.json"
	}
	return file, writeJSON(filepath.Join(o.outDir, name), file)
}

// driverLine selects the declared metrics of the mode that ran; a
// declared metric that was not measured is an error.
func (sp *spec) driverLine(res *workloadResult, traced bool) (*driverLine, error) {
	line := &driverLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: map[string]driverMetric{}}
	decl, from := sp.EndToEnd, res.EndToEnd
	if traced {
		decl, from = sp.PerLayer, res.PerLayer
	}
	for _, d := range decl {
		m, ok := from[d.Name]
		if !ok {
			return nil, fmt.Errorf("declared metric %s was not measured on %s", d.Name, res.Name)
		}
		line.Metrics[d.Name] = driverMetric{Value: m.Value, Unit: m.Unit}
	}
	return line, nil
}

// commit names the measured tree: the git commit when the checkout is
// a repository, otherwise "unknown" (the driver's checkout is not).
func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printResult prints one workload's metrics by name with unit and
// sample count: the declared end-to-end metrics first, then (traced
// mode or not) the per-layer metrics that were measured.
func printResult(w io.Writer, sp *spec, res *workloadResult, traced bool) {
	fmt.Fprintf(w, "\n== %s: attempted %d, failed %d, correct %v\n", res.Name, res.Attempted, res.Failed, res.Correct)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "   FAIL %s\n", f)
	}
	line := func(name string, m metric) {
		n := ""
		switch {
		case m.Thin:
			n = fmt.Sprintf("  (n=%d: fewer than ten samples beyond)", m.N)
		case m.N > 0:
			n = fmt.Sprintf("  (n=%d)", m.N)
		}
		fmt.Fprintf(w, "   %-40s %14.6g %-8s%s\n", name, m.Value, m.Unit, n)
	}
	if !traced {
		for _, d := range sp.EndToEnd {
			if m, ok := res.EndToEnd[d.Name]; ok {
				line(d.Name, m)
			}
		}
	}
	for _, name := range sortedNames(res.PerLayer) {
		line(name, res.PerLayer[name])
	}
	if !traced {
		return
	}
	fmt.Fprintf(w, "   ladder sum (kernel + exec self + miss self + http self) beside the served p50, ms\n")
	for _, k := range registryMix {
		if !k.point {
			continue
		}
		sum, p50 := ladderSum(res.PerLayer, k.name)/1e3, res.PerLayer["workload.p50_ms."+k.name].Value
		fmt.Fprintf(w, "   %-12s ladder %9.3f   served p50 %9.3f   gap %+.0f%%\n", k.name, sum, p50, 100*(p50-sum)/sum)
	}
}
