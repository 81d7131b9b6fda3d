package main

import (
	"fmt"
	"math"
	"sort"

	"kdp/internal/bench"
	"kdp/internal/buf"
	"kdp/internal/disk"
	"kdp/internal/fs"
	"kdp/internal/kernel"
	"kdp/internal/server"
	"kdp/internal/sim"
	"kdp/internal/simcheck"
	"kdp/internal/socket"
	"kdp/internal/stream"
	"kdp/internal/trace"
	"kdp/internal/workload"
)

// job is one closed-loop unit of work: boot a fresh simulated machine,
// run it, check its output. kind groups jobs for spans and reports.
type job struct {
	kind string
	run  func(t *spans) (out, error)
}

// out is what a job leaves behind for the determinism digest and the
// reports. Everything in it is virtual, so it repeats exactly.
type out struct {
	vals    map[string]float64 // raw simulated results the workload's sim_* metrics derive from
	events  uint64             // simulator events fired (0 where the machine is not reachable)
	stats   kernel.CPUStats
	metrics *trace.Metrics // trace counters; nil untraced or where the machine is not reachable
	fold    []uint64       // further virtual outputs: simcheck digest, byte counts
	armed   bool
	fired   int64
	ops     int
}

// workloadDef is one benchmark workload. build derives the jobs of
// every round from the workload seed. simMetrics turns the jobs' raw
// values into the workload's sim_* report.
type workloadDef struct {
	name string
	// roundSecs is one round's nominal host CPU time (2-vCPU Xeon,
	// go1.24). It only sizes the run: rounds = seconds / (2 passes x
	// roundSecs), so the work is fixed for a given --seconds, and
	// set-up warms up on the first warmSecs/roundSecs rounds.
	roundSecs  float64
	build      func(seed uint64, rounds int) [][]job
	simMetrics func(jobs []job, outs []out) []metric
}

var workloads = []workloadDef{
	{name: "copy", roundSecs: 1.0, build: eachRound(copyRound), simMetrics: copySim},
	{name: "serve", roundSecs: 0.33, build: eachRound(serveRound), simMetrics: serveSim},
	{name: "check", roundSecs: 0.85, build: checkRounds, simMetrics: func([]job, []out) []metric { return nil }},
}

// eachRound makes a whole-list build from a one-round one.
func eachRound(round func(seed uint64, round int) []job) func(uint64, int) [][]job {
	return func(seed uint64, rounds int) [][]job {
		out := make([][]job, rounds)
		for r := range out {
			out[r] = round(seed, r)
		}
		return out
	}
}

// derive maps the workload seed and a path of labels to an input seed
// (splitmix64 over the fold), so every job input is a function of the
// one seed the benchmark is given.
func derive(seed uint64, path ...uint64) uint64 {
	x := seed
	for _, p := range path {
		x ^= p + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		x = z ^ (z >> 31)
	}
	return x
}

// Labels for derive.
const (
	tagKernel = iota + 1
	tagPattern
	tagPlain
	tagCrash
	tagFault
	tagArmK
)

// patternByte is round's file pattern byte (MakeFile's seed, and the
// served file's XOR byte).
func patternByte(seed uint64, round int) byte {
	return byte(derive(seed, tagPattern, uint64(round)))
}

// Paths bench's Table helpers use.
const (
	srcPath = "/src/bigfile"
	dstPath = "/dst/copy"
)

// ---- copy: the paper's own experiment (Tables 1 and 2). ----

var copyModes = []workload.CopyMode{
	workload.CopyReadWrite, workload.CopySplice, workload.CopyMmap,
	workload.CopyVectored, workload.CopyBatched,
}

func copyRound(seed uint64, round int) []job {
	kseed := derive(seed, tagKernel, uint64(round))
	pat := patternByte(seed, round)
	var jobs []job
	for _, m := range copyModes {
		jobs = append(jobs, throughputJob(bench.RAM, m, kseed, pat))
	}
	for _, m := range copyModes[:2] {
		jobs = append(jobs, throughputJob(bench.RZ58, m, kseed, pat))
	}
	jobs = append(jobs,
		idleJob(kseed),
		availJob(workload.CopyReadWrite, kseed, pat),
		availJob(workload.CopySplice, kseed, pat))
	return jobs
}

// newMachine boots bench's Table machine for one job.
func newMachine(t *spans, kind bench.DiskKind, kseed uint64, label string) (*bench.Machine, bench.Setup) {
	s := bench.DefaultSetup(kind)
	s.Seed = kseed
	s.Label = label
	sp := t.begin("boot")
	m := bench.NewMachine(s)
	t.end(sp)
	if t != nil {
		// mkfs writes the raw media, so starting here misses no event.
		m.K.StartTrace(nil)
	}
	return m, s
}

// runMachine drives a machine to completion under a kernel.run span
// and collects its virtual outputs.
func runMachine(t *spans, k *kernel.Kernel, o *out) error {
	sp := t.begin("kernel.run")
	err := k.Run()
	t.end(sp)
	o.events = k.Engine().Fired()
	o.stats = k.Stats()
	o.metrics = k.Tracer().Metrics()
	return err
}

// inProc runs body as a simulated process's work, turning a panic into
// the job's error so a broken job is counted instead of aborting.
func inProc(errp *error, body func() error) {
	defer func() {
		if r := recover(); r != nil {
			*errp = fmt.Errorf("panic: %v", r)
		}
	}()
	*errp = body()
}

func throughputJob(kind bench.DiskKind, mode workload.CopyMode, kseed uint64, pat byte) job {
	name := fmt.Sprintf("copy.%s.%s", kind, mode)
	return job{kind: name, run: func(t *spans) (out, error) {
		m, s := newMachine(t, kind, kseed, name)
		var res workload.CopyResult
		var perr error
		m.K.Spawn("copier", func(p *kernel.Proc) {
			inProc(&perr, func() error {
				if err := boot(t, m, p); err != nil {
					return err
				}
				if err := makeFile(t, p, s.FileBytes, pat); err != nil {
					return err
				}
				sp := t.begin("workload.coldstart")
				err := workload.ColdStart(p, m.Cache, m.Devices()...)
				t.end(sp)
				if err != nil {
					return err
				}
				sp = t.begin("workload.copy." + mode.String())
				res, err = workload.Copy(p, workload.DefaultCopySpec(srcPath, dstPath, mode))
				t.end(sp)
				if err != nil {
					return err
				}
				return readBack(t, p, dstPath, s.FileBytes, pat)
			})
		})
		var o out
		err := runMachine(t, m.K, &o)
		o.vals = map[string]float64{"kbs": res.ThroughputKBs()}
		o.fold = []uint64{uint64(res.Bytes), uint64(res.Elapsed)}
		if err == nil {
			err = perr
		}
		if err == nil && res.Bytes != s.FileBytes {
			err = fmt.Errorf("%s: copied %d of %d bytes", name, res.Bytes, s.FileBytes)
		}
		return o, err
	}}
}

func boot(t *spans, m *bench.Machine, p *kernel.Proc) error {
	sp := t.begin("boot")
	defer t.end(sp)
	return m.Boot(p)
}

func makeFile(t *spans, p *kernel.Proc, n int64, pat byte) error {
	sp := t.begin("workload.makefile")
	defer t.end(sp)
	return workload.MakeFile(p, srcPath, n, pat)
}

// patternAt is MakeFile's byte at offset v for pattern byte pat.
func patternAt(v int64, pat byte) byte { return byte(v>>8) ^ byte(v)*5 ^ pat }

// readBack reads path through the kernel and compares it byte for
// byte with the source pattern: a copy that keeps its virtual timing
// but returns wrong or zero data fails here.
func readBack(t *spans, p *kernel.Proc, path string, n int64, pat byte) error {
	sp := t.begin("check.readback")
	defer t.end(sp)
	fd, err := p.Open(path, kernel.ORdOnly)
	if err != nil {
		return fmt.Errorf("read back %s: %w", path, err)
	}
	b := make([]byte, bench.BlockSize)
	var off int64
	for {
		got, err := p.Read(fd, b)
		if err != nil {
			_ = p.Close(fd)
			return fmt.Errorf("read back %s: %w", path, err)
		}
		if got == 0 {
			break
		}
		for i := 0; i < got; i++ {
			if want := patternAt(off+int64(i), pat); b[i] != want {
				_ = p.Close(fd)
				return fmt.Errorf("read back %s: byte %d is %#x, want %#x", path, off+int64(i), b[i], want)
			}
		}
		off += int64(got)
	}
	if err := p.Close(fd); err != nil {
		return fmt.Errorf("read back %s: %w", path, err)
	}
	if off != n {
		return fmt.Errorf("read back %s: %d bytes, want %d", path, off, n)
	}
	return nil
}

// idleJob is Table 1's baseline: the test program alone on a RAM machine.
func idleJob(kseed uint64) job {
	return job{kind: "copy.t1.idle", run: func(t *spans) (out, error) {
		m, s := newMachine(t, bench.RAM, kseed, "copy.t1.idle")
		var res workload.TestProgramResult
		var perr error
		m.K.Spawn("test", func(p *kernel.Proc) {
			inProc(&perr, func() error {
				if err := boot(t, m, p); err != nil {
					return err
				}
				res = workload.RunTestProgram(p, s.TestOps, s.TestOpCost)
				return nil
			})
		})
		var o out
		err := runMachine(t, m.K, &o)
		o.vals = map[string]float64{"elapsed": float64(res.Elapsed)}
		if err == nil {
			err = perr
		}
		if min := sim.Duration(s.TestOps) * s.TestOpCost; err == nil && (res.Ops != s.TestOps || res.Elapsed < min) {
			err = fmt.Errorf("idle: %d ops in %v, want %d ops in at least %v", res.Ops, res.Elapsed, s.TestOps, min)
		}
		return o, err
	}}
}

// availJob is one Table 1 cell on the RAM disk: the test program
// beside a copier looping cold-cache copies (bench.MeasureAvailability's
// schedule). Once the test program is done, the copier makes one more
// copy and reads it back, which cannot change the measured elapsed time.
func availJob(mode workload.CopyMode, kseed uint64, pat byte) job {
	name := "copy.t1.avail." + mode.String()
	return job{kind: name, run: func(t *spans) (out, error) {
		m, s := newMachine(t, bench.RAM, kseed, name)
		stop, ready := false, false
		var test workload.TestProgramResult
		var rounds int
		var bytes int64
		var perr error
		spec := workload.DefaultCopySpec(srcPath, dstPath, mode)
		m.K.Spawn("copier", func(p *kernel.Proc) {
			inProc(&perr, func() error {
				if err := boot(t, m, p); err != nil {
					return err
				}
				if err := makeFile(t, p, s.FileBytes, pat); err != nil {
					return err
				}
				ready = true
				m.K.Wakeup(&ready)
				sp := t.begin("workload.loopcopy." + mode.String())
				var err error
				rounds, bytes, err = workload.LoopCopy(p, spec, m.Cache, m.Devices(), &stop)
				t.end(sp)
				if err != nil {
					return err
				}
				sp = t.begin("workload.copy." + mode.String())
				_, err = workload.Copy(p, spec)
				t.end(sp)
				if err != nil {
					return err
				}
				return readBack(t, p, dstPath, s.FileBytes, pat)
			})
		})
		m.K.Spawn("test", func(p *kernel.Proc) {
			for !ready {
				_ = p.Sleep(&ready, kernel.PWAIT)
			}
			test = workload.RunTestProgram(p, s.TestOps, s.TestOpCost)
			stop = true
		})
		var o out
		err := runMachine(t, m.K, &o)
		o.vals = map[string]float64{"elapsed": float64(test.Elapsed)}
		o.fold = []uint64{uint64(rounds), uint64(bytes)}
		if err == nil {
			err = perr
		}
		if err == nil && (rounds < 1 || bytes != int64(rounds)*s.FileBytes) {
			err = fmt.Errorf("%s: %d rounds moved %d bytes", name, rounds, bytes)
		}
		return o, err
	}}
}

// copySim reports Table 2's RAM cp and scp cells and 100/F of Table 1's
// RAM cells. RAM-disk timing does not depend on the kernel seed, so
// every round gives the same values; the median is reported.
func copySim(jobs []job, outs []out) []metric {
	idle := medianVal(jobs, outs, "copy.t1.idle", "elapsed")
	avail := func(kind string) float64 {
		if e := medianVal(jobs, outs, kind, "elapsed"); e > 0 {
			return 100 * idle / e
		}
		return 0
	}
	return []metric{
		{"sim_cp_kbs", medianVal(jobs, outs, "copy.RAM.cp", "kbs"), "KB/s"},
		{"sim_scp_kbs", medianVal(jobs, outs, "copy.RAM.scp", "kbs"), "KB/s"},
		{"sim_cp_avail_pct", avail("copy.t1.avail.cp"), "%"},
		{"sim_scp_avail_pct", avail("copy.t1.avail.scp"), "%"},
	}
}

// medianVal is the median of raw value key over the jobs of one kind.
func medianVal(jobs []job, outs []out, kind, key string) float64 {
	var vs []float64
	for i, j := range jobs {
		if j.kind == kind {
			vs = append(vs, outs[i].vals[key])
		}
	}
	return median(vs)
}

// ---- serve: bench.MeasureServerEngine's cells. ----

// Server cell geometry, as in bench/server.go.
const (
	serverPort       = 80
	serverFileBytes  = 128 << 10
	serverFile       = "/srv/file"
	clientThink      = 400 * sim.Millisecond
	serverClientReqs = 3
	serverTestOps    = 800
	serverTestCost   = 10 * sim.Millisecond
)

type serveCell struct {
	engine server.Engine
	mode   server.Mode
}

var serveCells = []serveCell{
	{server.EngineProcs, server.ModeCopy},
	{server.EngineProcs, server.ModeSplice},
	{server.EngineEvent, server.ModeCopy},
	{server.EngineEvent, server.ModeSplice},
}

func cellName(c serveCell) string {
	e := "procs"
	if c.engine == server.EngineEvent {
		e = "event"
	}
	m := "cp"
	if c.mode == server.ModeSplice {
		m = "scp"
	}
	return e + "-" + m
}

func serveRound(seed uint64, round int) []job {
	kseed := derive(seed, tagKernel, uint64(round))
	pat := patternByte(seed, round)
	var jobs []job
	// The 4-client cells keep the median job inside a cluster of
	// similar jobs rather than on the gap between 1 and 8 clients.
	for _, clients := range []int{1, 4, 8} {
		for _, c := range serveCells {
			jobs = append(jobs, serveJob(c, clients, kseed, pat))
		}
	}
	return jobs
}

// serveJob is one bench.MeasureServerEngine cell assembled from the
// same public calls, so that clients can check what they receive:
// every response is the served file's pattern, whole, and every client
// completes all of its requests.
func serveJob(c serveCell, clients int, kseed uint64, pat byte) job {
	name := fmt.Sprintf("serve.%s.%d", cellName(c), clients)
	return job{kind: name, run: func(t *spans) (out, error) {
		sp := t.begin("server.cell." + cellName(c))
		o, err := runServeCell(t, name, c, clients, kseed, pat)
		t.end(sp)
		return o, err
	}}
}

func runServeCell(t *spans, name string, c serveCell, clients int, kseed uint64, pat byte) (out, error) {
	sp := t.begin("boot")
	cfg := kernel.DefaultConfig()
	cfg.Seed = kseed
	cfg.MaxRunTime = 3600 * sim.Second
	k := kernel.New(cfg)
	if t != nil {
		k.StartTrace(nil)
	}
	cache := buf.NewCache(k, 400, 8192)
	d := disk.New(k, disk.RAMDisk(2048, 8192))
	d.SetCache(cache)
	_, err := fs.Mkfs(d, 64)
	t.end(sp)
	if err != nil {
		return out{}, err
	}
	net := socket.NewNet(k, socket.Ethernet10())
	st, err := stream.NewTransport(k, net, serverPort)
	if err != nil {
		return out{}, err
	}
	cts := make([]*stream.Transport, clients)
	for i := range cts {
		if cts[i], err = stream.NewTransport(k, net, 5001+i); err != nil {
			return out{}, err
		}
	}

	ready := false
	var elapsed sim.Duration
	var srv *server.Server
	latencies := make([][]sim.Duration, clients)
	var totalBytes int64
	var perr error
	k.Spawn("boot", func(p *kernel.Proc) {
		inProc(&perr, func() error {
			sp := t.begin("boot")
			f, err := fs.Mount(p.Ctx(), cache, d)
			t.end(sp)
			if err != nil {
				return err
			}
			k.Mount("/srv", f)
			if err := serveFile(p, pat); err != nil {
				return err
			}
			srv = server.Start(k, server.Config{
				Name: "fsrv", Transport: st, Path: serverFile,
				FileBytes: serverFileBytes, Mode: c.mode, Engine: c.engine, Conns: clients,
			})
			ready = true
			k.Wakeup(&ready)
			return nil
		})
	})
	cerrs := make([]error, clients)
	for i := 0; i < clients; i++ {
		i := i
		k.Spawn(fmt.Sprintf("client-%d", i), func(p *kernel.Proc) {
			for !ready {
				_ = p.Sleep(&ready, kernel.PWAIT)
			}
			inProc(&cerrs[i], func() error {
				fd, _, err := cts[i].Connect(p, serverPort)
				if err != nil {
					return err
				}
				b := make([]byte, 8192)
				var bad error
				for r := 0; r < serverClientReqs; r++ {
					t0 := p.Now()
					if _, err := p.Write(fd, []byte{1}); err != nil {
						break
					}
					var got int
					for got < serverFileBytes {
						n, err := p.Read(fd, b)
						if err != nil || n == 0 {
							break
						}
						for j := 0; j < n && bad == nil; j++ {
							if w := byte(got+j) ^ pat; b[j] != w {
								bad = fmt.Errorf("client %d request %d: byte %d is %#x, want %#x", i, r, got+j, b[j], w)
							}
						}
						got += n
					}
					latencies[i] = append(latencies[i], p.Now().Sub(t0))
					totalBytes += int64(got)
					if bad == nil && got != serverFileBytes {
						bad = fmt.Errorf("client %d request %d: %d bytes, want %d", i, r, got, serverFileBytes)
					}
					p.SleepFor(clientThink)
				}
				_ = p.Close(fd)
				return bad
			})
		})
	}
	k.Spawn("test", func(p *kernel.Proc) {
		for !ready {
			_ = p.Sleep(&ready, kernel.PWAIT)
		}
		t0 := p.Now()
		for i := 0; i < serverTestOps; i++ {
			p.Compute(serverTestCost)
		}
		elapsed = p.Now().Sub(t0)
	})

	var o out
	err = runMachine(t, k, &o)
	var all []sim.Duration
	for _, ls := range latencies {
		all = append(all, ls...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	var kbs, avail float64
	if elapsed > 0 {
		avail = 100 * float64(sim.Duration(serverTestOps)*serverTestCost) / float64(elapsed)
		kbs = float64(totalBytes) / 1024 / (float64(elapsed) / float64(sim.Second))
	}
	var p99 sim.Duration
	if len(all) > 0 {
		p99 = all[min((len(all)*99+99)/100, len(all))-1]
	}
	o.vals = map[string]float64{"kbs": kbs, "avail": avail, "p99_ms": float64(p99) / float64(sim.Millisecond)}
	o.fold = []uint64{uint64(totalBytes), uint64(len(all))}
	if err == nil {
		err = perr
	}
	for _, e := range cerrs {
		if err == nil {
			err = e
		}
	}
	if want := clients * serverClientReqs; err == nil && (len(all) != want || srv == nil || srv.Requests() != int64(want)) {
		err = fmt.Errorf("%s: %d client requests, want %d", name, len(all), want)
	}
	return o, err
}

// serveFile writes the served file (pattern byte(offset)^pat) and
// reads it once, so every block is resident and the network is the
// only device in the serving path.
func serveFile(p *kernel.Proc, pat byte) error {
	fd, err := p.Open(serverFile, kernel.OCreat|kernel.ORdWr)
	if err != nil {
		return err
	}
	block := make([]byte, 8192)
	for i := range block {
		block[i] = byte(i) ^ pat
	}
	for off := 0; off < serverFileBytes; off += len(block) {
		if _, err := p.Write(fd, block); err != nil {
			return err
		}
	}
	_ = p.Close(fd)
	rfd, err := p.Open(serverFile, kernel.ORdOnly)
	if err != nil {
		return err
	}
	for {
		n, err := p.Read(rfd, block)
		if err != nil || n == 0 {
			break
		}
	}
	return p.Close(rfd)
}

// serveSim reports the 8-client process-per-connection cells.
func serveSim(jobs []job, outs []out) []metric {
	cp, scp := "serve.procs-cp.8", "serve.procs-scp.8"
	return []metric{
		{"sim_cp_kbs", medianVal(jobs, outs, cp, "kbs"), "KB/s"},
		{"sim_scp_kbs", medianVal(jobs, outs, scp, "kbs"), "KB/s"},
		{"sim_cp_avail_pct", medianVal(jobs, outs, cp, "avail"), "%"},
		{"sim_scp_avail_pct", medianVal(jobs, outs, scp, "avail"), "%"},
		{"sim_cp_p99_ms", medianVal(jobs, outs, cp, "p99_ms"), "sim_ms"},
		{"sim_scp_p99_ms", medianVal(jobs, outs, scp, "p99_ms"), "sim_ms"},
	}
}

// ---- check: the simcheck harness, as CI runs it. ----

// Per round: plainPerRound fault-free runs with checkWorkers workers
// (kdpcheck's sweep), crashPerRound crash runs (kdpcheck -crash) and
// armsPerRound armed runs of a fault sweep (kdpcheck -faults, at its
// -ops). Every run has its own seed, so a run's cost varies with its
// seed but not with its neighbours'.
const (
	plainPerRound = 2
	crashPerRound = 2
	armsPerRound  = 2
	checkWorkers  = 3
	faultOps      = 40
)

// checkRounds builds the check job list. Each armed run gets its own
// seed, whose fault-free single-worker census runs here, in set-up; a
// census that fails becomes a job that fails with its error.
func checkRounds(seed uint64, rounds int) [][]job {
	n := rounds * armsPerRound
	cfgs := make([]simcheck.Config, n)
	censuses := make([][]kernel.SiteCount, n)
	errs := make([]error, n)
	for i := range cfgs {
		cfgs[i] = simcheck.Config{Seed: derive(seed, tagFault, uint64(i)), Workers: 1, Ops: faultOps}
		res := simcheck.Run(cfgs[i])
		censuses[i] = res.Census
		switch {
		case res.Violation != nil:
			errs[i] = fmt.Errorf("census %+v: %w", cfgs[i], res.Violation)
		case len(res.Census) == 0:
			errs[i] = fmt.Errorf("census %+v: no fault site", cfgs[i])
		}
	}
	picks := assignSites(censuses)

	rs := make([][]job, rounds)
	for r := range rs {
		for i := 0; i < plainPerRound; i++ {
			s := derive(seed, tagPlain, uint64(r), uint64(i))
			rs[r] = append(rs[r], simcheckJob("plain", simcheck.Config{Seed: s, Workers: checkWorkers}))
		}
		for i := 0; i < crashPerRound; i++ {
			s := derive(seed, tagCrash, uint64(r), uint64(i))
			rs[r] = append(rs[r], simcheckJob("crash", simcheck.Config{Seed: s, Crash: true}))
		}
		for i := r * armsPerRound; i < (r+1)*armsPerRound; i++ {
			if err := errs[i]; err != nil {
				rs[r] = append(rs[r], job{kind: "check.armed", run: func(*spans) (out, error) { return out{}, err }})
				continue
			}
			sc := censuses[i][picks[i]]
			cfg := cfgs[i]
			cfg.FaultSite, cfg.FaultK = sc.Site, 1+int64(derive(seed, tagArmK, uint64(i))%uint64(sc.N))
			rs[r] = append(rs[r], simcheckJob("armed", cfg))
		}
	}
	return rs
}

// assignSites picks one entry of each census to arm, so that every site
// found by any census is armed at least once: the sites found by the
// fewest censuses claim a run first, and the remaining runs cycle
// through their census.
func assignSites(censuses [][]kernel.SiteCount) []int {
	found := map[kernel.FaultSite]int{}
	for _, c := range censuses {
		for _, sc := range c {
			found[sc.Site]++
		}
	}
	sites := make([]kernel.FaultSite, 0, len(found))
	for s := range found {
		sites = append(sites, s)
	}
	sort.Slice(sites, func(i, j int) bool {
		if found[sites[i]] != found[sites[j]] {
			return found[sites[i]] < found[sites[j]]
		}
		return sites[i] < sites[j]
	})
	picks := make([]int, len(censuses))
	for i := range picks {
		picks[i] = -1
	}
	for _, s := range sites {
	runs:
		for i, c := range censuses {
			if picks[i] >= 0 {
				continue
			}
			for j, sc := range c {
				if sc.Site == s {
					picks[i] = j
					break runs
				}
			}
		}
	}
	for i, c := range censuses {
		if picks[i] < 0 && len(c) > 0 {
			picks[i] = i % len(c)
		}
	}
	return picks
}

// simcheckJob is one harness run; an armed run must fire exactly once.
func simcheckJob(kind string, cfg simcheck.Config) job {
	return job{kind: "check." + kind, run: func(t *spans) (out, error) {
		sp := t.begin("simcheck.run." + kind)
		res := simcheck.Run(cfg)
		t.end(sp)
		o := out{
			stats: res.Stats,
			fold:  []uint64{res.Digest, uint64(res.FaultFired)},
			armed: cfg.FaultSite != "",
			fired: res.FaultFired,
			ops:   res.Ops,
		}
		switch {
		case res.Violation != nil:
			return o, fmt.Errorf("simcheck %+v: %w", cfg, res.Violation)
		case o.armed && res.FaultFired != 1:
			return o, fmt.Errorf("simcheck %+v: armed fault fired %d times, want 1", cfg, res.FaultFired)
		}
		return o, nil
	}}
}

// digest folds one job's virtual outputs (FNV-1a).
func (o *out) digest(kind string) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	for i := 0; i < len(kind); i++ {
		mix(uint64(kind[i]))
	}
	keys := make([]string, 0, len(o.vals))
	for k := range o.vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		mix(math.Float64bits(o.vals[k]))
	}
	st := o.stats
	for _, v := range []int64{int64(st.Now), int64(st.Idle), int64(st.Interrupt), int64(st.Switching), st.Switches, st.Interrupts, st.Ticks} {
		mix(uint64(v))
	}
	mix(o.events)
	for _, v := range o.fold {
		mix(v)
	}
	return h
}
