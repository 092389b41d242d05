// Command benchmark is the repository's one benchmark: four workloads driven
// against the real pama-server running as a child process, and a traced mode
// that rebuilds the same stack in-process to say where the time goes. See
// README.md in this directory for the metric and workload definitions.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh --workload get_hot --seed 1 --seconds 12 --trace 0
//	bash benchmark/run.sh -repeat 2 -out results.json   # all four workloads, twice
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

func init() {
	// Children are forked from the main goroutine, which stays on the main
	// thread: Pdeathsig is delivered when the forking thread exits, and the
	// main thread exits only with the process.
	runtime.LockOSThread()
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints, and one entry of a result file.
type result struct {
	Workload  string                 `json:"workload,omitempty"`
	Seed      uint64                 `json:"seed,omitempty"`
	Trace     int                    `json:"trace,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildDir is where binaries, the Go build cache (see run.sh) and nothing
// else go; .gitignore names it.
const buildDir = ".bench_build"

// repoRoot finds the checkout root from the working directory: run.sh runs
// the benchmark from the root, `go run -C benchmark .` from benchmark/.
func repoRoot() (string, error) {
	for _, d := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(d, "cmd", "pama-server", "main.go")); err == nil {
			return filepath.Abs(d)
		}
	}
	return "", errors.New("cmd/pama-server not found: run from the repository root (bash benchmark/run.sh) or from benchmark/")
}

// buildServer compiles cmd/pama-server into buildDir and reports how long it
// took (loadgen.build_s; never part of setup_s).
func buildServer(root string) (bin string, took time.Duration, err error) {
	bin = filepath.Join(root, buildDir, "pama-server")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/pama-server")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/pama-server: %w\n%s", err, out)
	}
	return bin, time.Since(t0), nil
}

func main() {
	os.Exit(run())
}

func run() (code int) {
	workload := flag.String("workload", "", "workload to run (default: all four)")
	seed := flag.Uint64("seed", 1, "seed of the generated request streams")
	seconds := flag.Int("seconds", 12, "length of the measured phase")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced run")
	repeat := flag.Int("repeat", 1, "runs per workload, with seeds seed, seed+1, ... (a result file with several runs gives -compare a spread)")
	out := flag.String("out", "", "also write the results to this JSON file (for -compare)")
	compare := flag.Bool("compare", false, "compare two result files given as arguments and exit")
	refAddr := flag.String("ref-serve", "", "internal: run the reference server on this address (see ref.go)")
	flag.Parse()

	if *refAddr != "" {
		fmt.Fprintln(os.Stderr, "benchmark: reference server:", refServe(*refAddr))
		return 1
	}

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 || *seconds < 1 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		return 2
	}
	run := specs
	if *workload != "" {
		sp := specByName(*workload)
		if sp == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			return 2
		}
		run = []*spec{sp}
	}

	// No child may survive any exit path: signals, panics, plain returns.
	killChildrenOnSignal()
	defer func() {
		killChildren()
		if p := recover(); p != nil {
			panic(p)
		}
	}()

	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	bin, took, err := buildServer(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	buildS := took.Seconds()

	var results []result
	for _, sp := range run {
		for s := *seed; s < *seed+uint64(*repeat); s++ {
			var res result
			if *trace == 1 {
				res, err = runTraced(sp, bin, root, s, *seconds, buildS)
			} else {
				res, err = runEndToEnd(sp, bin, s, *seconds)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", sp.name, err)
				return 1
			}
			res.Workload, res.Seed, res.Trace = sp.name, s, *trace
			results = append(results, res)
			printResult(res)
			if !res.Correct {
				code = 1
			}
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(results, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	return code
}

// runEndToEnd is the --trace 0 run: the outside-in measurement alone.
func runEndToEnd(sp *spec, bin string, seed uint64, seconds int) (result, error) {
	r, err := runOutside(sp, bin, seed, seconds, setupRepeats, nil)
	if err != nil {
		return result{}, err
	}
	res := result{Attempted: r.attempted, Failed: r.failed, Correct: r.ok(), Metrics: map[string]metricValue{}}
	for _, d := range endToEnd {
		res.Metrics[d.Name] = metricValue{r.m[d.Name], d.Unit}
	}
	if r.ok() {
		fmt.Printf("# %s: %d round trips sampled in the quietest %d one-second slices (%d beyond capacity); the hypervisor stole %.1f%% of CPU time\n",
			sp.name, r.samples, r.slices, r.dropped, 100*r.stolen)
		fmt.Printf("# %s: as measured %.0f ops/s; the host ran at %.3f of the reference's nominal speed (server CPU alone: %.3f), and timings are reported at nominal speed\n",
			sp.name, r.m["loadgen.ops_per_s_raw"], r.m["loadgen.host_speed"], r.m["loadgen.host_cpu_speed"])
		if g, s := r.m["loadgen.cpu_us_per_op"], r.m["server_cpu_us_per_op"]; g > 0.5*s {
			fmt.Printf("# %s: generator CPU %.2f us/op is more than half the server's %.2f us/op: throughput here is partly the generator's\n", sp.name, g, s)
		}
	}
	return res, nil
}

// printResult prints every metric by name and unit, then the result line the
// driver reads: one JSON object, last on standard output.
func printResult(res result) {
	defs := endToEnd
	if res.Trace == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("%-16s %-34s %14.4f %s\n", res.Workload, d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	fmt.Printf("%-16s attempted %d failed %d correct %v\n", res.Workload, res.Attempted, res.Failed, res.Correct)
	line := result{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // a map of floats and strings always marshals, unless a value is NaN: a bug
	}
	fmt.Println(string(b))
}
