// Command e2ebench is the end-to-end benchmark of the simulator and the
// sweep service. One invocation runs one workload and prints, as the last
// line of standard output, one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"setup_s": {"value": 3.1, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end set of BENCHMARK.json; with
// -trace 1 they are the per-layer set, recorded from outside the program
// (public calls, hook fields and GET /metrics). The line before it is a
// JSON record of the environment and of how each number was sampled.
// README.md maps every workload to the layers and metrics it exercises.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash e2ebench/run.sh --workload trio-warm --seed 1 --seconds 30 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to its runner. BENCHMARK.json lists the
// same names; the self-test checks that they agree.
var workloads = map[string]func(*bench) error{
	"sk6144-single": runSingle,
	"trio-cold":     runTrioCold,
	"trio-warm":     runTrioWarm,
}

// splitTolerance is how far a worker's layer split may miss its wall time,
// as a share of that wall time, before the traced run is marked incorrect.
const splitTolerance = 0.05

// bench is one invocation: its inputs and the report it fills.
type bench struct {
	seed   int64
	budget time.Duration // measuring time; sets the repetition count
	trace  bool          // per-layer run: alternate plain and traced repetitions
	small  bool          // shrunken workloads, for the self-test
	root   string        // repository root, where examples/traces lives
	tmp    string        // scratch directory for cache journals
	log    io.Writer     // diagnostics
	probe  *probe        // host-speed probe, timed before every repetition
	rep    report
}

// report accumulates what the final JSON line prints.
type report struct {
	attempted, failed int
	metrics           map[string]metric
	notes             map[string]any
	raw               map[string]float64 // timed figures before host-speed scaling
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(key string, v any) {
	if r.notes == nil {
		r.notes = map[string]any{}
	}
	r.notes[key] = v
}

// timed reports a duration measured in host time, scaled to the reference
// host by the probe (probe.go); the raw value goes to the "raw" note.
func (b *bench) timed(name string, seconds float64, unit string) {
	b.rep.set(name, seconds*b.probe.scale(), unit)
	b.rep.raw[name] = seconds
}

// rate reports a per-host-second figure the same way.
func (b *bench) rate(name string, perSecond float64, unit string) {
	b.rep.set(name, perSecond/b.probe.scale(), unit)
	b.rep.raw[name] = perSecond
}

// op counts one timed operation. A failed one is reported on the log and
// its timings must be discarded by the caller.
func (b *bench) op(err error, what string) bool {
	b.rep.attempted++
	if err != nil {
		b.rep.failed++
		fmt.Fprintf(b.log, "e2ebench: %s failed: %v\n", what, err)
		return false
	}
	return true
}

// repeat runs fn for rep = 0 .. n-1, where n is the measuring time divided
// by nominal, the repetition's duration on the reference host, clamped to
// [minReps, maxReps]. The count depends on -seconds alone, never on speed,
// so two commits measured alike do the same work. In a traced run the
// repetitions alternate plain and traced in ABBA order, so drift over the
// run affects both halves alike; the plain ones give trace.overhead_frac.
// The host-speed probe runs probesPerRep times before each repetition.
func (b *bench) repeat(nominal time.Duration, minReps, maxReps int, fn func(rep int, traced bool)) int {
	if b.trace && minReps < 4 {
		minReps = 4
	}
	n := int(math.Round(float64(b.budget) / float64(nominal)))
	n = max(minReps, min(n, maxReps))
	start := time.Now()
	for rep := 0; rep < n; rep++ {
		if time.Since(start) > cutoff {
			// Only a program far slower than the nominal gets here; stop so
			// the run still ends in time, and say so.
			fmt.Fprintf(b.log, "e2ebench: stopped after %d of %d repetitions at the %v cut-off\n", rep, n, cutoff)
			return rep
		}
		for range probesPerRep {
			b.probe.measure()
		}
		fn(rep, b.trace && (rep%4 == 1 || rep%4 == 2))
	}
	return n
}

const (
	// cutoff is when repeat stops starting repetitions, so that a run ends
	// within three minutes even if the program under test slows down badly.
	cutoff       = 120 * time.Second
	probesPerRep = 3
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: sk6144-single, trio-cold or trio-warm")
		seed    = flag.Int64("seed", 1, "benchmark seed; every input derives from it (pinned digests exist for seed 1)")
		seconds = flag.Float64("seconds", 30, "measuring time")
		trace   = flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
		root    = flag.String("root", ".", "repository root")
		pins    = flag.Bool("pins", false, "print the digests of seed 1 for pins.go and exit")
	)
	flag.Parse()
	if *pins {
		if err := printPins(os.Stdout, *root); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: want -workload sk6144-single|trio-cold|trio-warm, -trace 0|1 and -seconds >= 0\n")
		os.Exit(2)
	}
	tmp := filepath.Join(*root, ".bench_build", "e2ebench-tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	b := &bench{
		seed:   *seed,
		budget: time.Duration(*seconds * float64(time.Second)),
		trace:  *trace == 1,
		root:   *root,
		tmp:    tmp,
		log:    os.Stderr,
	}
	res, err := b.execute(*name, run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	out := json.NewEncoder(os.Stdout)
	out.Encode(map[string]any{"env": environment(*root), "workload": *name, "seed": *seed, "notes": b.rep.notes})
	if err := out.Encode(res); err != nil {
		os.Exit(1)
	}
}

// result is the final line's shape.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// execute runs one workload and shapes its report. An error means the
// harness itself could not run (no result is printed).
func (b *bench) execute(name string, run func(*bench) error) (result, error) {
	p, err := newProbe()
	if err != nil {
		return result{}, err
	}
	defer p.close()
	b.probe = p
	b.rep.raw = map[string]float64{}
	if err := run(b); err != nil {
		return result{}, fmt.Errorf("%s: %w", name, err)
	}
	b.rep.note("probe", map[string]any{"median_s": median(p.times), "samples": len(p.times), "scale": p.scale()})
	if len(b.rep.raw) > 0 {
		b.rep.note("raw", b.rep.raw)
	}
	if b.rep.attempted == 0 {
		return result{}, fmt.Errorf("%s: no operation ran", name)
	}
	res := result{
		Correct:   b.rep.failed == 0,
		Attempted: b.rep.attempted,
		Failed:    b.rep.failed,
		Metrics:   b.rep.metrics,
	}
	if b.trace {
		if r, ok := res.Metrics["split.residual_frac"]; ok && r.Value > splitTolerance {
			fmt.Fprintf(b.log, "e2ebench: layer split misses worker wall time by %.3f (tolerance %.2f)\n", r.Value, splitTolerance)
			res.Correct = false
		}
	}
	return res, nil
}

// environment records what the numbers depend on besides the code: the
// commit when the tree is a git checkout, a digest of the Go sources that
// identifies the code either way, and the host's processor and Go setup.
func environment(root string) map[string]any {
	commit := "unknown"
	// Only the root's own repository: a checkout without .git may sit
	// inside an unrelated work tree.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	return map[string]any{
		"commit":      commit,
		"source_hash": sourceHash(root),
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"goos_goarch": runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// sourceHash digests go.mod and every .go file under cmd/ and internal/.
func sourceHash(root string) string {
	h := sha256.New()
	var files []string
	for _, dir := range []string{"cmd", "internal"} {
		filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				files = append(files, p)
			}
			return nil
		})
	}
	sort.Strings(files)
	for _, f := range append([]string{filepath.Join(root, "go.mod")}, files...) {
		data, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// heapMB forces a collection and returns the live heap in MiB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest of p99, p95, p90 and p75 that has at least ten
// samples above it, with its name. Under 40 samples none qualifies and the
// median is returned, named p50.
func tail(xs []float64) (float64, string) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range []int{99, 95, 90, 75} {
		i := int(math.Ceil(float64(p)*float64(n)/100)) - 1 // nearest rank
		if i >= 0 && n-1-i >= 10 {
			return s[i], fmt.Sprintf("p%d", p)
		}
	}
	return median(xs), "p50"
}

// digest is a short content hash used for the pinned correctness checks.
func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
