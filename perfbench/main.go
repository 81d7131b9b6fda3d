// Command perfbench is the repository's benchmark. It runs one of
// three fixed-work workloads (copy, serve, check) as a closed loop with
// one client: each job boots a fresh simulated machine through the
// public entry points of internal/bench, workload, server, stream,
// socket and simcheck, runs it, and checks its output.
//
//	perfbench --workload copy --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports host cost end to end; with --trace 1 it
// runs one untraced and one traced pass and reports per-layer metrics,
// writing spans and a CPU profile under --out. The last line of
// standard output is one JSON object; the lines before it name every
// metric with its unit, the simulated results and the run's digest.
// README.md gives the reasons for each workload and metric.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// defaultSeed is the workload seed whose copy results must match the
// RAM rows of cmd/kdpbench/testdata/table{1,2}.golden.
const defaultSeed = 1

// Fixed run shape: set-up is repeated setupReps times (setup_s is the
// median), then the job list is timed over passes passes, each of
// which must reproduce every job's virtual digest.
const (
	setupReps = 3
	passes    = 2
	// warmSecs is the nominal length of one set-up's warm-up, long
	// enough that setup_s is not a few boots' worth of noise.
	warmSecs = 1.0
	// minTail is how many timed jobs must lie beyond job_ms_p90.
	minTail = 10
)

type metric struct {
	name  string
	value float64
	unit  string
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	outDir   string
	// rounds, when positive, overrides the number of rounds --seconds
	// implies and lifts the p90 sample floor (the self-test's tiny runs).
	rounds int
}

// report is a finished run.
type report struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric // the JSON line: end-to-end, or per-layer when traced
	sim       []metric // the workload's sim_* results
	layers    []layerValue
	digest    uint64
	problems  []string
}

func main() {
	start := time.Now()
	var o options
	var traceN int
	flag.StringVar(&o.workload, "workload", "copy", "workload: copy, serve or check")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed; every job input derives from it")
	flag.IntVar(&o.seconds, "seconds", 30, "nominal measured seconds; sizes the fixed job list")
	flag.IntVar(&traceN, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for spans and CPU profiles")
	flag.Parse()
	if traceN != 0 && traceN != 1 || o.seconds < 1 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload copy|serve|check --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	o.trace = traceN == 1
	rep, err := run(o, start, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printJSON(os.Stdout, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func lookup(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// runJob runs one job; a panic on the calling goroutine (the kernel
// re-raises a process's panic there) becomes the job's error.
func runJob(j job, t *spans) (o out, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: panic: %v", j.kind, r)
			t.endAll()
		}
	}()
	return j.run(t)
}

// runner holds the first digest seen for each job and the failures so
// far; every later run of a job must reproduce its digest.
type runner struct {
	digests map[int]uint64
	bad     map[int]bool
	report  *report
}

func (r *runner) do(i int, j job, t *spans) (out, bool) {
	if t != nil {
		t.job = i
	}
	o, err := runJob(j, t)
	d := o.digest(j.kind)
	if err == nil {
		if first, ok := r.digests[i]; !ok {
			r.digests[i] = d
		} else if first != d {
			err = fmt.Errorf("%s: virtual digest %016x, first run gave %016x", j.kind, d, first)
		}
	}
	if err != nil {
		if !r.bad[i] {
			r.report.problems = append(r.report.problems, fmt.Sprintf("job %d %v", i, err))
		}
		r.bad[i] = true
	}
	return o, err == nil
}

// hostSample is the process's host cost counters at one instant.
type hostSample struct {
	wall  time.Time
	cpu   time.Duration // user+sys, getrusage
	alloc uint64        // MemStats.TotalAlloc
}

func sampleHost() hostSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostSample{
		wall:  time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
	}
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// run executes the workload and prints the human-readable report.
func run(o options, start time.Time, w io.Writer) (*report, error) {
	def, err := lookup(o.workload)
	if err != nil {
		return nil, err
	}
	nRounds := o.rounds
	if nRounds <= 0 {
		nRounds = max(1, int(math.Ceil(float64(o.seconds)/(passes*def.roundSecs))))
	}
	rep := &report{}
	rn := &runner{digests: map[int]uint64{}, bad: map[int]bool{}, report: rep}

	// Set-up: derive the inputs (check runs its fault census here) and
	// warm up on the first rounds, setupReps times.
	var rounds [][]job
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		if rep == 0 {
			t0 = start
		}
		rounds = def.build(o.seed, nRounds)
		i := 0
		for _, r := range rounds[:min(len(rounds), max(1, int(warmSecs/def.roundSecs)))] {
			for _, j := range r {
				rn.do(i, j, nil) // a failure is recorded in rep.problems
				i++
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	var jobs []job
	for _, r := range rounds {
		jobs = append(jobs, r...)
	}
	if o.rounds == 0 && passes*len(jobs) < 10*minTail {
		return nil, fmt.Errorf("%d timed jobs leave fewer than %d beyond p90; raise --seconds", passes*len(jobs), minTail)
	}
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%d trace=%t rounds=%d jobs=%d passes=%d\n",
		o.workload, o.seed, o.seconds, o.trace, nRounds, len(jobs), passes)

	// Timed passes, sampled at every round boundary: the rate metrics
	// are medians over rounds, so a burst of load from elsewhere on the
	// host moves a few rounds, not the result. A traced run times pass 0
	// untraced and pass 1 traced, so the two give trace.overhead_pct.
	var durs []float64
	var rates, cpus, allocs [passes][]float64
	var t *spans
	var prof bytes.Buffer
	var gc0 gcSample
	outs := make([]out, len(jobs))
	for pass := 0; pass < passes; pass++ {
		if o.trace && pass == passes-1 {
			t = newSpans()
			gc0 = sampleGC()
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, fmt.Errorf("cpu profile: %w", err)
			}
		}
		i := 0
		for _, round := range rounds {
			h0 := sampleHost()
			for _, j := range round {
				t0 := time.Now()
				var ok bool
				outs[i], ok = rn.do(i, j, t)
				durs = append(durs, float64(time.Since(t0))/float64(time.Millisecond))
				if !ok {
					rep.failed++
				}
				i++
			}
			h1, n := sampleHost(), float64(len(round))
			rates[pass] = append(rates[pass], n/h1.wall.Sub(h0.wall).Seconds())
			cpus[pass] = append(cpus[pass], float64(h1.cpu-h0.cpu)/float64(time.Millisecond)/n)
			allocs[pass] = append(allocs[pass], float64(h1.alloc-h0.alloc)/(1<<20)/n)
		}
		if t != nil {
			pprof.StopCPUProfile()
		}
	}
	rep.attempted = passes * len(jobs)
	all := func(v [passes][]float64) []float64 {
		var out []float64
		for _, x := range v {
			out = append(out, x...)
		}
		return out
	}

	// The digest folds every job's virtual outputs in job order.
	rep.digest = 14695981039346656037
	for i := range jobs {
		rep.digest = (rep.digest ^ rn.digests[i]) * 1099511628211
	}
	rep.sim = def.simMetrics(jobs, outs)
	if o.workload == "copy" && o.seed == defaultSeed {
		rep.problems = append(rep.problems, checkGolden(rep.sim)...)
	}
	rep.correct = len(rep.problems) == 0

	e2eVals := map[string]float64{
		"jobs_per_s":       median(all(rates)),
		"cpu_ms_per_job":   median(all(cpus)),
		"job_ms_p50":       quantile(durs, 0.5),
		"job_ms_p90":       quantile(durs, 0.9),
		"alloc_mb_per_job": median(all(allocs)),
		"maxrss_mb":        maxRSSMB(),
		"setup_s":          median(setups),
	}
	var e2e []metric
	for _, d := range e2eDefs {
		e2e = append(e2e, metric{d.name, e2eVals[d.name], d.unit})
	}
	failedPct := metric{"failed_pct", 100 * float64(rep.failed) / float64(rep.attempted), "%"}

	if o.trace {
		overhead := 100 * (median(cpus[1])/median(cpus[0]) - 1)
		shares, err := profShares(prof.Bytes())
		if err != nil {
			return nil, err
		}
		rep.layers = layerValues(layerInput{
			jobs: jobs, outs: outs, spans: t.stats(),
			prof: shares, gc: sampleGC().minus(gc0), overheadPct: overhead,
		})
		for _, l := range rep.layers {
			rep.metrics = append(rep.metrics, metric{l.def.name, l.value, l.def.unit})
		}
		if err := writeTraceFiles(o, t, prof.Bytes()); err != nil {
			return nil, err
		}
	} else {
		rep.metrics = e2e
	}

	if !o.trace {
		for _, m := range e2e {
			fmt.Fprintf(w, "metric %s %.6g %s\n", m.name, m.value, m.unit)
		}
	}
	fmt.Fprintf(w, "metric %s %.6g %s\n", failedPct.name, failedPct.value, failedPct.unit)
	for _, m := range rep.sim {
		fmt.Fprintf(w, "sim %s %.6g %s\n", m.name, m.value, m.unit)
	}
	for _, l := range rep.layers {
		fmt.Fprintf(w, "layer %s %.6g %s  # moves %s\n", l.def.name, l.value, l.def.unit, l.def.moves)
	}
	fmt.Fprintf(w, "digest %016x\n", rep.digest)
	for _, p := range rep.problems {
		fmt.Fprintf(w, "FAIL %s\n", p)
	}
	return rep, nil
}

// checkGolden holds the default seed's copy results to the RAM rows
// of the kdpbench goldens, at the goldens' printed precision.
func checkGolden(sim []metric) []string {
	want := map[string]string{
		"sim_cp_kbs": "2010", "sim_scp_kbs": "3891",
		"F_cp": "2.05", "F_scp": "1.30",
	}
	got := map[string]string{}
	for _, m := range sim {
		switch m.name {
		case "sim_cp_kbs", "sim_scp_kbs":
			got[m.name] = fmt.Sprintf("%.0f", m.value)
		case "sim_cp_avail_pct":
			got["F_cp"] = fmt.Sprintf("%.2f", 100/m.value)
		case "sim_scp_avail_pct":
			got["F_scp"] = fmt.Sprintf("%.2f", 100/m.value)
		}
	}
	var bad []string
	for _, k := range []string{"sim_cp_kbs", "sim_scp_kbs", "F_cp", "F_scp"} {
		if got[k] != want[k] {
			bad = append(bad, fmt.Sprintf("golden: %s is %s, table{1,2}.golden RAM row says %s", k, got[k], want[k]))
		}
	}
	return bad
}

func writeTraceFiles(o options, t *spans, prof []byte) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	if err := t.write(base + ".spans.jsonl"); err != nil {
		return err
	}
	return os.WriteFile(base+".cpu.pprof", prof, 0o644)
}

func printJSON(w io.Writer, rep *report) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, m := range rep.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return errors.New("metric " + m.name + " is not a number")
		}
		ms[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quantile is the nearest-rank q-quantile (0 for no values).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s[max(0, int(math.Ceil(q*float64(len(s))))-1)]
}
