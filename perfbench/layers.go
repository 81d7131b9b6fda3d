package main

import (
	"runtime/metrics"
	"strings"

	"kdp/internal/trace"
)

// metricDef is one reported metric. For a per-layer metric, moves
// names the end-to-end metric and workload it is expected to move.
type metricDef struct {
	name, unit, better, moves string
}

type layerValue struct {
	def   metricDef
	value float64
}

// e2eDefs are the end-to-end metrics of an untraced run, in report
// order: BENCHMARK.json's end_to_end list. Every workload reports
// each of them, from its own jobs.
var e2eDefs = []metricDef{
	{name: "jobs_per_s", unit: "1/s", better: "higher"},
	{name: "cpu_ms_per_job", unit: "ms", better: "lower"},
	{name: "job_ms_p50", unit: "ms", better: "lower"},
	{name: "job_ms_p90", unit: "ms", better: "lower"},
	{name: "alloc_mb_per_job", unit: "MB", better: "lower"},
	{name: "maxrss_mb", unit: "MB", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
}

// layerDefs lists every per-layer metric of the traced run in report
// order: BENCHMARK.json's per_layer list. Metrics of a layer a
// workload does not reach read 0 on that workload.
var layerDefs = []metricDef{
	// Host side: spans around the benchmark's calls into each module.
	{"boot.ms", "ms", "lower", "cpu_ms_per_job, alloc_mb_per_job, maxrss_mb on serve; less on copy"},
	{"boot.alloc_mb", "MB", "lower", "alloc_mb_per_job, maxrss_mb, cpu_ms_per_job on serve; less on copy"},
	{"workload.makefile_ms", "ms", "lower", "cpu_ms_per_job, jobs_per_s on copy"},
	{"workload.coldstart_ms", "ms", "lower", "cpu_ms_per_job, jobs_per_s on copy"},
	{"workload.copy_ms.cp", "ms", "lower", "cpu_ms_per_job, jobs_per_s on copy"},
	{"workload.copy_ms.scp", "ms", "lower", "cpu_ms_per_job, jobs_per_s on copy"},
	{"workload.copy_ms.mcp", "ms", "lower", "cpu_ms_per_job, jobs_per_s on copy"},
	{"workload.copy_ms.cpv", "ms", "lower", "cpu_ms_per_job, jobs_per_s on copy"},
	{"workload.copy_ms.bcp", "ms", "lower", "cpu_ms_per_job, jobs_per_s on copy"},
	{"kernel.run_ms", "ms", "lower", "jobs_per_s, cpu_ms_per_job on copy and serve"},
	{"sim.events", "count", "lower", "base for sim.ns_per_event on copy and serve"},
	{"sim.ns_per_event", "ns", "lower", "jobs_per_s on copy and serve (process handoff)"},
	{"kernel.switches", "count", "lower", "base for sim.ns_per_event on serve; jobs_per_s on check"},
	{"server.cell_ms.procs-cp", "ms", "lower", "jobs_per_s, job_ms_p90 on serve"},
	{"server.cell_ms.procs-scp", "ms", "lower", "jobs_per_s, job_ms_p90 on serve"},
	{"server.cell_ms.event-cp", "ms", "lower", "jobs_per_s, job_ms_p50 on serve"},
	{"server.cell_ms.event-scp", "ms", "lower", "jobs_per_s, job_ms_p50 on serve"},
	{"simcheck.run_ms.plain", "ms", "lower", "cpu_ms_per_job, jobs_per_s on check"},
	{"simcheck.run_ms.crash", "ms", "lower", "cpu_ms_per_job, jobs_per_s on check"},
	{"simcheck.run_ms.armed", "ms", "lower", "cpu_ms_per_job, jobs_per_s on check"},
	{"runtime.gc_cpu_pct", "%", "lower", "cpu_ms_per_job on serve and check"},
	{"runtime.gc_cycles", "count", "lower", "cpu_ms_per_job, alloc_mb_per_job on serve and check"},
	{"prof.buf.self_pct", "%", "lower", "cpu_ms_per_job on check (CheckInvariants)"},
	{"prof.kernel.self_pct", "%", "lower", "cpu_ms_per_job on serve and check"},
	{"prof.sim.self_pct", "%", "lower", "jobs_per_s on serve and check"},
	{"prof.fs.self_pct", "%", "lower", "cpu_ms_per_job on copy and check"},
	{"prof.disk.self_pct", "%", "lower", "cpu_ms_per_job, alloc_mb_per_job on serve and copy"},
	{"prof.splice.self_pct", "%", "lower", "cpu_ms_per_job on copy and check"},
	{"prof.socket.self_pct", "%", "lower", "cpu_ms_per_job on serve"},
	{"prof.stream.self_pct", "%", "lower", "cpu_ms_per_job on serve"},
	{"prof.server.self_pct", "%", "lower", "cpu_ms_per_job on serve"},
	{"prof.vm.self_pct", "%", "lower", "cpu_ms_per_job on copy (mcp) and check"},
	{"prof.trace.self_pct", "%", "lower", "cpu_ms_per_job on check (Metrics.observe)"},
	{"prof.simcheck.self_pct", "%", "lower", "cpu_ms_per_job on check"},
	{"prof.workload.self_pct", "%", "lower", "cpu_ms_per_job on copy (MakeFile)"},
	{"prof.runtime.memclr.self_pct", "%", "lower", "cpu_ms_per_job on serve (boot allocation)"},
	{"prof.runtime.memmove.self_pct", "%", "lower", "cpu_ms_per_job on copy"},
	{"prof.runtime.futex.self_pct", "%", "lower", "jobs_per_s on serve and check (process handoff)"},
	{"prof.runtime.gc.self_pct", "%", "lower", "cpu_ms_per_job on serve and check"},
	{"trace.overhead_pct", "%", "lower", "none: traced vs untraced cpu_ms_per_job of this run"},

	// Virtual side: exact counts from trace.Metrics of copy and serve
	// machines, and simcheck.Result of check jobs. Per job unless a
	// ratio or peak.
	{"kernel.vcpu_user_ms", "sim_ms", "lower", "sim_*_avail_pct on copy (cp vs cpv/bcp) and serve"},
	{"kernel.vcpu_sys_ms", "sim_ms", "lower", "sim_*_avail_pct, sim_cp_kbs on copy and serve"},
	{"kernel.vcpu_intr_ms", "sim_ms", "lower", "sim_scp_avail_pct on copy and serve"},
	{"kernel.vcpu_switch_ms", "sim_ms", "lower", "sim_*_avail_pct on copy and serve"},
	{"kernel.syscalls", "count", "lower", "sim_*_avail_pct, sim_cp_kbs on copy and serve"},
	{"sys.batch_crossings_saved", "count", "higher", "sim_cp_kbs on copy (bcp)"},
	{"buf.hit_ratio", "ratio", "higher", "sim_cp_kbs on copy (cold); about 1.0 on serve"},
	{"buf.ra_hit_ratio", "ratio", "higher", "sim_cp_kbs on copy"},
	{"disk.busy_ms", "sim_ms", "lower", "RZ58 cells' KB/s on copy"},
	{"disk.queue_mean", "requests", "lower", "RZ58 cells' KB/s on copy"},
	{"splice.bytes", "bytes", "higher", "sim_scp_kbs on copy, sim_scp_p99_ms on serve"},
	{"splice.peak_reads", "blocks", "lower", "sim_scp_kbs on copy, sim_scp_p99_ms on serve"},
	{"splice.peak_writes", "blocks", "lower", "sim_scp_kbs on copy, sim_scp_p99_ms on serve"},
	{"vm.faults", "count", "lower", "the mcp cell's cost on copy"},
	{"vm.pageouts", "count", "lower", "the mcp cell's cost on copy"},
	{"net.tx_bytes", "bytes", "higher", "sim_*_p99_ms on serve"},
	{"stream.retx_peak_tries", "count", "lower", "sim_*_p99_ms on serve"},
	{"poll.ready_ratio", "ratio", "higher", "sim_*_p99_ms on serve (event engine)"},
	{"simcheck.ops", "count", "higher", "failed_pct on check"},
	{"fault.fired_ratio", "ratio", "higher", "failed_pct on check"},
}

// gcSample is the runtime's cumulative GC counters.
type gcSample struct{ gcCPU, totalCPU, cycles float64 }

var gcMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func sampleGC() gcSample {
	s := make([]metrics.Sample, len(gcMetricNames))
	for i, n := range gcMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	f := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return gcSample{f(0), f(1), f(2)}
}

func (g gcSample) minus(o gcSample) gcSample {
	return gcSample{g.gcCPU - o.gcCPU, g.totalCPU - o.totalCPU, g.cycles - o.cycles}
}

// layerInput is what the traced pass left behind.
type layerInput struct {
	jobs        []job
	outs        []out
	spans       map[string]*spanStat
	prof        map[string]float64
	gc          gcSample
	overheadPct float64
}

// layerValues computes every metric of layerDefs from the traced pass.
func layerValues(in layerInput) []layerValue {
	v := map[string]float64{}
	const ms = 1e6
	perCall := func(name string, self bool) float64 {
		st := in.spans[name]
		if st == nil || st.calls == 0 {
			return 0
		}
		if self {
			return float64(st.selfNs) / ms / float64(st.calls)
		}
		return float64(st.totalNs) / ms / float64(st.calls)
	}
	if st := in.spans["boot"]; st != nil && st.jobs > 0 {
		v["boot.ms"] = float64(st.totalNs) / ms / float64(st.jobs)
		v["boot.alloc_mb"] = float64(st.allocBytes) / (1 << 20) / float64(st.jobs)
	}
	v["workload.makefile_ms"] = perCall("workload.makefile", false)
	v["workload.coldstart_ms"] = perCall("workload.coldstart", false)
	for _, m := range copyModes {
		v["workload.copy_ms."+m.String()] = perCall("workload.copy."+m.String(), false)
	}
	v["kernel.run_ms"] = perCall("kernel.run", true)
	for _, c := range serveCells {
		v["server.cell_ms."+cellName(c)] = perCall("server.cell."+cellName(c), false)
	}
	for _, k := range []string{"plain", "crash", "armed"} {
		v["simcheck.run_ms."+k] = perCall("simcheck.run."+k, false)
	}
	if in.gc.totalCPU > 0 {
		v["runtime.gc_cpu_pct"] = 100 * in.gc.gcCPU / in.gc.totalCPU
	}
	v["runtime.gc_cycles"] = in.gc.cycles
	for _, p := range profPackages {
		v["prof."+p+".self_pct"] = in.prof[p]
	}
	for _, r := range []string{"memclr", "memmove", "futex", "gc"} {
		v["prof.runtime."+r+".self_pct"] = in.prof[r]
	}
	v["trace.overhead_pct"] = in.overheadPct

	// Virtual counters.
	var evJobs, traced, checkJobs, armed, firedOnce float64
	var events, switches, ops float64
	var c counters
	for i, o := range in.outs {
		switches += float64(o.stats.Switches)
		if o.events > 0 {
			evJobs++
			events += float64(o.events)
		}
		if strings.HasPrefix(in.jobs[i].kind, "check.") {
			checkJobs++
			ops += float64(o.ops)
			if o.armed {
				armed++
				if o.fired == 1 {
					firedOnce++
				}
			}
		}
		if o.metrics != nil {
			traced++
			c.add(o.metrics)
		}
	}
	n := float64(len(in.outs))
	v["kernel.switches"] = switches / n
	if evJobs > 0 {
		v["sim.events"] = events / evJobs
		if st := in.spans["kernel.run"]; st != nil {
			v["sim.ns_per_event"] = float64(st.totalNs) / events
		}
	}
	if checkJobs > 0 {
		v["simcheck.ops"] = ops / checkJobs
	}
	if armed > 0 {
		v["fault.fired_ratio"] = firedOnce / armed
	}
	if traced > 0 {
		for name, x := range c.perJob {
			v[name] = x / traced
		}
		ratio := func(a, b float64) float64 {
			if b == 0 {
				return 0
			}
			return a / b
		}
		v["buf.hit_ratio"] = ratio(c.hits, c.hits+c.misses)
		v["buf.ra_hit_ratio"] = ratio(c.raHits, c.raIssued)
		v["disk.queue_mean"] = ratio(c.queueSum, c.queueSamples)
		v["poll.ready_ratio"] = ratio(c.pollReady, c.pollScanned)
		v["splice.peak_reads"] = c.peakReads
		v["splice.peak_writes"] = c.peakWrites
		v["stream.retx_peak_tries"] = c.retxPeak
	}

	out := make([]layerValue, len(layerDefs))
	for i, d := range layerDefs {
		out[i] = layerValue{d, v[d.name]}
	}
	return out
}

// counters folds the trace.Metrics of many machines: sums reported
// per job, the parts of ratios, and peaks.
type counters struct {
	perJob                          map[string]float64
	hits, misses, raHits, raIssued  float64
	queueSum, queueSamples          float64
	pollReady, pollScanned          float64
	peakReads, peakWrites, retxPeak float64
}

func (c *counters) add(m *trace.Metrics) {
	if c.perJob == nil {
		c.perJob = map[string]float64{}
	}
	const ms = 1e6
	c.perJob["kernel.vcpu_user_ms"] += float64(m.CPUUser) / ms
	c.perJob["kernel.vcpu_sys_ms"] += float64(m.CPUSys) / ms
	c.perJob["kernel.vcpu_intr_ms"] += float64(m.CPUIntr) / ms
	c.perJob["kernel.vcpu_switch_ms"] += float64(m.CPUSwitch) / ms
	c.perJob["sys.batch_crossings_saved"] += float64(m.BatchCrossingsSaved)
	c.perJob["splice.bytes"] += float64(m.SpliceBytes)
	c.perJob["vm.faults"] += float64(m.VMFaults)
	c.perJob["vm.pageouts"] += float64(m.VMPageouts)
	c.perJob["net.tx_bytes"] += float64(m.NetTxBytes)
	c.hits += float64(m.BufHits)
	c.misses += float64(m.BufMisses)
	c.raHits += float64(m.BufRaHits)
	c.raIssued += float64(m.BufRaIssued)
	c.pollReady += float64(m.PollReadyFds)
	c.pollScanned += float64(m.PollScannedFds)
	c.peakReads = max(c.peakReads, float64(m.SplicePeakReads))
	c.peakWrites = max(c.peakWrites, float64(m.SplicePeakWrites))
	c.retxPeak = max(c.retxPeak, float64(m.StreamRetxPeakTries))
	// Syscall and per-disk counters are only reachable by name.
	for _, s := range m.Snapshot() {
		switch {
		case strings.HasPrefix(s.Name, "syscall."):
			c.perJob["kernel.syscalls"] += float64(s.Value)
		case strings.HasPrefix(s.Name, "disk.") && strings.HasSuffix(s.Name, ".busy"):
			c.perJob["disk.busy_ms"] += float64(s.Value) / ms
		case strings.HasPrefix(s.Name, "disk.") && strings.HasSuffix(s.Name, ".queue_sum"):
			c.queueSum += float64(s.Value)
		case strings.HasPrefix(s.Name, "disk.") && strings.HasSuffix(s.Name, ".queue_samples"):
			c.queueSamples += float64(s.Value)
		}
	}
}
