package main

// sweep-service: many short cases — every kernel × the paper's three modes
// × three seeds — through cdfsweepd's HTTP API on loopback, first cold
// into an empty cache directory and then as an identical warm job, and
// the same case set through the in-process cached sweep
// (SuiteOptions.Store), cold then warm.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"cdf"
	"cdf/internal/sweepd"
	"cdf/internal/sweepstore"
)

// serviceUops is the short-case length: small enough that per-case
// overhead, not simulation, dominates.
const serviceUops = 2_000

// serviceSeeds is how many seeds the service job sweeps.
const serviceSeeds = 3

// serviceWorkers is the sweepd worker pool size. With one worker the
// service runs cases in order, so the gap between consecutive result rows
// on the stream is one case's service time.
const serviceWorkers = 1

// serviceMinRounds is the fewest rounds a run makes.
const serviceMinRounds = 2

var serviceModes = []string{"baseline", "cdf", "pre"}

// serviceSpec is the job both service passes submit.
func (b *bench) serviceSpec() sweepd.JobSpec {
	sp := sweepd.JobSpec{Modes: serviceModes, MaxUops: serviceUops}
	for _, k := range cdf.Benchmarks() {
		sp.Benchmarks = append(sp.Benchmarks, k.Name)
	}
	for k := uint64(0); k < serviceSeeds; k++ {
		sp.Seeds = append(sp.Seeds, b.simSeed(k))
	}
	return sp
}

// serviceCases expands the spec in the service's row order:
// benchmark-major, then mode, then seed.
func serviceCases(sp sweepd.JobSpec) []simCase {
	modes := map[string]cdf.Mode{"baseline": cdf.ModeBaseline, "cdf": cdf.ModeCDF, "pre": cdf.ModePRE}
	var cases []simCase
	for _, k := range sp.Benchmarks {
		for _, m := range sp.Modes {
			for i, s := range sp.Seeds {
				cases = append(cases, simCase{label: fmt.Sprintf("%s/%s/s%d", k, m, i), bench: k,
					opt: cdf.Options{Mode: modes[m], MaxUops: sp.MaxUops, Seed: s}})
			}
		}
	}
	return cases
}

// round is one cold+warm pass through the service and the in-process
// sweep.
type round struct {
	setup                  time.Duration // service start and worker spawn
	coldJob, warmJob       time.Duration // submit to last row
	coldGaps, warmGaps     []time.Duration
	inprocCold, inprocWarm time.Duration
	wall                   time.Duration // the four timed phases
	health                 sweepd.Health
	hits, misses           int64 // in-process store, after the warm sweep
	results                []cdf.Result
	digest                 string
	simUops                uint64
}

func runSweepService(b *bench) error {
	if err := becomeSubreaper(); err != nil {
		return err
	}
	sp := b.serviceSpec()
	cases := serviceCases(sp)
	build, err := setupCases(cases)
	if err != nil {
		return err
	}
	var rounds []round
	var tracedWalls []time.Duration
	err = b.repeat(serviceMinRounds, func(i int) error {
		r, err := b.serviceRound(i, sp, cases, false)
		if err != nil {
			return err
		}
		rounds = append(rounds, r)
		if b.traced {
			t, err := b.serviceRound(i, sp, cases, true)
			if err != nil {
				return err
			}
			if t.digest != r.digest {
				b.problem("traced round %d simulated different statistics", i)
			}
			tracedWalls = append(tracedWalls, t.wall)
		}
		return nil
	})
	if err != nil {
		return err
	}
	var setups, walls, coldGaps, warmGaps, colds, warms, inCold, inWarm []time.Duration
	var sim uint64
	for i, r := range rounds {
		if i == 0 {
			b.digest = r.digest
		} else if r.digest != b.digest {
			b.problem("round %d simulated different statistics (digest %s, round 0 %s)", i, r.digest, b.digest)
		}
		setups = append(setups, r.setup)
		walls = append(walls, r.wall)
		coldGaps = append(coldGaps, r.coldGaps...)
		warmGaps = append(warmGaps, r.warmGaps...)
		colds, warms = append(colds, r.coldJob), append(warms, r.warmJob)
		inCold, inWarm = append(inCold, r.inprocCold), append(inWarm, r.inprocWarm)
		sim += r.simUops
	}
	nMin := serviceMinRounds * len(cases)
	cold, warm := summarizeLatency(coldGaps, nMin), summarizeLatency(warmGaps, nMin)
	b.note("rounds: %d; cold job %.3f s, warm job %.3f s, in-process cold %.3f s, warm %.3f s (medians)",
		len(rounds), durMedian(colds), durMedian(warms), durMedian(inCold), durMedian(inWarm))
	b.note("service per-case latency: cold %s; warm %s", cold, warm)
	if !b.traced {
		b.set("setup_s", build.Seconds()+durMedian(setups))
		b.set("wall_s", durMedian(walls))
		b.set("sim_uops_per_s", float64(sim)/durSum(walls).Seconds())
		b.set("covered_uops_per_s", float64(sim)/durSum(walls).Seconds())
		b.set("case_p50_ms", cold.p50)
		b.set("case_tail_ms", cold.tail)
		b.set("peak_rss_mb", peakRSSMB())
		return nil
	}

	b.set("sweep.cold_job_s", durMedian(colds))
	b.set("sweep.warm_job_s", durMedian(warms))
	b.set("sweep.inproc_cold_s", durMedian(inCold))
	b.set("sweep.inproc_warm_s", durMedian(inWarm))
	b.set("sweep.warm_case_p50_ms", warm.p50)
	b.set("sweep.warm_case_tail_ms", warm.tail)
	last := rounds[len(rounds)-1]
	h := last.health
	b.set("sweepd.dispatches", float64(h.Pool.Dispatches))
	b.set("sweepd.spawns", float64(h.Pool.Spawns))
	b.set("sweepd.deaths", float64(h.Pool.Deaths))
	b.set("sweepd.stalls", float64(h.Pool.Stalls))
	b.set("sweepd.retries", float64(h.Cache.Retries))
	var untraced []pass
	for _, r := range rounds {
		untraced = append(untraced, pass{wall: r.wall})
	}
	reportTraceOverhead(b, untraced, tracedWalls)

	// The layers under the service, on the same cases in this process.
	probeRoot := b.tr.begin("probe", 0, "")
	if err := b.caseLayers(probeRoot, cases, last.results); err != nil {
		return err
	}
	if err := b.supervisorProbe(probeRoot, cases[:min(len(cases), 24)]); err != nil {
		return err
	}
	b.tr.end(probeRoot)
	b.set("store.hits", float64(last.hits))
	b.set("store.misses", float64(last.misses))
	modelMetrics(b, last.results)
	return nil
}

// caseLayers times each case in-process through cdf.RunContext and again
// as a replayed, CPU-profiled Build/New/Cycle loop, then probes the
// functional layers and the store with the same cases.
func (b *bench) caseLayers(parent int, cases []simCase, results []cdf.Result) error {
	var ls loopStats
	var prof stageProfile
	p := runCases(b, cases)
	if p.digest != b.digest {
		b.problem("in-process runs differ from the sweeps' results (digest %s, sweeps %s)", p.digest, b.digest)
	}
	entries := make([]digestEntry, len(cases))
	for i, c := range cases {
		sp := b.tr.begin("case", parent, c.label)
		m, err := replayFull(b.tr, sp, c, &ls)
		b.tr.end(sp)
		if err != nil {
			return err
		}
		entries[i] = digestEntry{c.label, m}
	}
	if d := digest(entries); d != p.digest {
		b.problem("replay does not reproduce cdf.Run (digest %s, cdf.Run %s)", d, p.digest)
	}
	if err := profiledPass(b, cases, &prof, p.digest); err != nil {
		return err
	}
	replay := durSum(ls.build) + durSum(ls.newCore) + ls.time
	b.set("harness.overhead_frac", float64(durSum(p.caseDur))/float64(replay)-1)
	if err := probeLayers(b, parent, cases, results, &ls); err != nil {
		return err
	}
	ls.report(b)
	prof.report(b)
	return nil
}

// serviceRound starts a service on an empty cache directory, runs the cold
// and the warm job through its HTTP API, stops it, and runs the same cases
// through the in-process cached sweep, cold then warm. Every result set is
// checked against the others.
func (b *bench) serviceRound(i int, sp sweepd.JobSpec, cases []simCase, traced bool) (round, error) {
	var r round
	tr := b.tr
	if !traced {
		tr = nil
	}
	dir := filepath.Join(b.workDir, fmt.Sprintf("round%d-%v", i, traced))
	defer os.RemoveAll(dir)
	root := tr.begin("round", 0, "")
	defer tr.end(root)

	t0 := time.Now()
	sp0 := tr.begin("sweepd.start", root, "")
	svc, err := startService(b.binDir, filepath.Join(dir, "service"))
	if err != nil {
		return r, err
	}
	defer svc.stop()
	// One tiny case outside the measured set spawns the worker.
	probe := sweepd.JobSpec{Benchmarks: []string{"astar"}, Modes: []string{"baseline"}, Seeds: []uint64{1}, MaxUops: 1000}
	if _, err := svc.job(probe, nil, 0, ""); err != nil {
		return r, fmt.Errorf("spawning the worker: %w", err)
	}
	tr.end(sp0)
	r.setup = time.Since(t0)

	sp1 := tr.begin("sweepd.job.cold", root, "")
	cold, err := svc.job(sp, tr, sp1, "cold")
	tr.end(sp1)
	if err != nil {
		return r, err
	}
	r.coldJob, r.coldGaps = cold.dur, cold.gaps
	b.checkRows(cases, cold.rows, false)
	sp2 := tr.begin("sweepd.job.warm", root, "")
	warm, err := svc.job(sp, tr, sp2, "warm")
	tr.end(sp2)
	if err != nil {
		return r, err
	}
	r.warmJob, r.warmGaps = warm.dur, warm.gaps
	b.checkRows(cases, warm.rows, true)
	coldCSV, err := svc.csv(cold.id)
	if err != nil {
		return r, err
	}
	warmCSV, err := svc.csv(warm.id)
	if err != nil {
		return r, err
	}
	if !bytes.Equal(coldCSV, warmCSV) {
		b.problem("warm service CSV differs from the cold one")
	}
	if r.health, err = svc.healthz(); err != nil {
		return r, err
	}
	if err := svc.stop(); err != nil {
		return r, err
	}

	st, err := sweepstore.Open(filepath.Join(dir, "inproc"), false)
	if err != nil {
		return r, err
	}
	defer st.Close()
	suite := func(name string) time.Duration {
		span := tr.begin(name, root, "")
		defer tr.end(span)
		t := time.Now()
		for _, seed := range sp.Seeds {
			rows, err := cdf.Fig13Speedup(cdf.SuiteOptions{Benchmarks: sp.Benchmarks, MaxUops: sp.MaxUops,
				Seed: seed, Jobs: simWorkers, Store: st})
			if err != nil {
				var se *cdf.SweepError
				if errors.As(err, &se) {
					b.failed += len(se.Failures)
				}
				b.problem("in-process %s sweep: %v", name, err)
			} else if len(rows) != len(sp.Benchmarks) {
				b.problem("in-process %s sweep returned %d rows", name, len(rows))
			}
		}
		return time.Since(t)
	}
	r.inprocCold = suite("cdf.Fig13Speedup.cold")
	r.inprocWarm = suite("cdf.Fig13Speedup.warm")
	s := st.Stats()
	r.hits, r.misses = s.Hits, s.Misses
	if s.Misses != int64(len(cases)) || s.Hits != int64(len(cases)) {
		b.problem("in-process store served %d hits and %d misses, want %d of each", s.Hits, s.Misses, len(cases))
	}
	r.wall = r.coldJob + r.warmJob + r.inprocCold + r.inprocWarm

	// Read the in-process results back in the service's row order.
	inRows := make([]sweepd.Row, len(cases))
	r.results = make([]cdf.Result, len(cases))
	entries := make([]digestEntry, len(cases))
	for k, c := range cases {
		res, hit, err := cdf.RunCached(context.Background(), st, c.bench, c.opt)
		if err == nil && !hit {
			err = errors.New("not served from the cache")
		}
		checkResult(b, c, res, err)
		r.results[k] = res
		r.simUops += 2 * res.Uops // simulated once by the service, once in process
		entries[k] = digestEntry{c.label, res.Metrics}
		inRows[k] = sweepd.Row{Bench: c.bench, Mode: c.opt.Mode.String(), Seed: c.opt.Seed,
			Status: "done", Result: &r.results[k]}
	}
	r.digest = digest(entries)
	var inCSV bytes.Buffer
	if err := sweepd.WriteCSV(&inCSV, inRows); err != nil {
		return r, err
	}
	if !bytes.Equal(inCSV.Bytes(), coldCSV) {
		b.problem("in-process sweep rows differ from the service CSV")
	}
	return r, st.Close()
}

// checkRows checks a service job's rows, in case order.
func (b *bench) checkRows(cases []simCase, rows []sweepd.Row, warm bool) {
	if len(rows) != len(cases) {
		b.attempted += len(cases)
		b.failed += len(cases)
		b.problem("service job returned %d rows for %d cases", len(rows), len(cases))
		return
	}
	for i, row := range rows {
		c := cases[i]
		var res cdf.Result
		var err error
		switch {
		case row.Status != "done" || row.Result == nil:
			err = fmt.Errorf("service row status %q: %s", row.Status, row.Error)
		case row.Bench != c.bench || row.Mode != c.opt.Mode.String() || row.Seed != c.opt.Seed:
			err = fmt.Errorf("service row is %s/%s/%d", row.Bench, row.Mode, row.Seed)
		case row.FromCache != warm:
			err = fmt.Errorf("service row from_cache=%v, want %v", row.FromCache, warm)
		default:
			res = *row.Result
		}
		checkResult(b, c, res, err)
	}
}

// service is one cdfsweepd process.
type service struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	exited chan error
	done   bool
}

// startService launches cdfsweepd on a loopback port with one worker and
// waits until it is listening. It runs in its own process group, which
// its workers inherit, so stop can wait for all of them.
func startService(binDir, cacheDir string) (*service, error) {
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(cacheDir + ".log")
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(filepath.Join(binDir, "cdfsweepd"), "-addr", "127.0.0.1:0", "-cache-dir", cacheDir,
		"-workers", fmt.Sprint(serviceWorkers), "-worker-cmd", filepath.Join(binDir, "cdfsim"))
	cmd.Stderr = logf
	// Pdeathsig takes the service down with this process if it dies
	// without stopping it; its workers then exit on their closed stdin.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start cdfsweepd: %w", err)
	}
	s := &service{cmd: cmd, exited: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "cdfsweepd: listening on "); ok {
				addr <- a
			}
		}
		close(addr)
		s.exited <- cmd.Wait()
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			s.stop()
			return nil, fmt.Errorf("cdfsweepd exited before listening (see %s.log)", cacheDir)
		}
		s.base = "http://" + a
		return s, nil
	case <-time.After(20 * time.Second):
		s.stop()
		return nil, errors.New("cdfsweepd did not start listening within 20s")
	}
}

// stop drains the service with SIGTERM (SIGKILL after a grace period) and
// waits until it and every worker it started have exited.
func (s *service) stop() error {
	if s.done {
		return nil
	}
	s.done = true
	pid := s.cmd.Process.Pid
	_ = syscall.Kill(pid, syscall.SIGTERM) // already gone is fine
	var err error
	select {
	case err = <-s.exited:
	case <-time.After(30 * time.Second):
		_ = syscall.Kill(-pid, syscall.SIGKILL)
		err = fmt.Errorf("cdfsweepd did not drain within 30s: %v", <-s.exited)
	}
	if rerr := reapGroup(pid); err == nil {
		err = rerr
	}
	if err != nil {
		return fmt.Errorf("stopping cdfsweepd: %w", err)
	}
	return nil
}

// jobRun is one job as the client saw it.
type jobRun struct {
	id   string
	rows []sweepd.Row
	gaps []time.Duration // before each row arrived; the first from the submission's reply
	dur  time.Duration   // from submit to the last row
}

// job submits spec and streams its rows as JSON lines until the last one.
// With a tracer, each gap becomes a span named after the job.
func (s *service) job(spec sweepd.JobSpec, tr *tracer, parent int, name string) (jobRun, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return jobRun{}, err
	}
	t0 := time.Now()
	resp, err := http.Post(s.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return jobRun{}, err
	}
	var sub struct {
		ID    string `json:"id"`
		Cases int    `json:"cases"`
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return jobRun{}, fmt.Errorf("submit job: status %d: %v %s", resp.StatusCode, err, sub.Error)
	}
	prev := time.Now()
	resp, err = http.Get(s.base + "/jobs/" + sub.ID + "/results")
	if err != nil {
		return jobRun{}, err
	}
	defer resp.Body.Close()
	j := jobRun{id: sub.ID}
	dec := json.NewDecoder(resp.Body)
	for len(j.rows) < sub.Cases {
		var row sweepd.Row
		if err := dec.Decode(&row); err != nil {
			return jobRun{}, fmt.Errorf("job %s: row %d: %w", sub.ID, len(j.rows), err)
		}
		now := time.Now()
		tr.record("sweepd.row."+name, parent, fmt.Sprintf("%s/%s/%d", row.Bench, row.Mode, row.Seed), prev, now)
		j.gaps = append(j.gaps, now.Sub(prev))
		prev = now
		j.rows = append(j.rows, row)
	}
	j.dur = time.Since(t0)
	return j, nil
}

// csv fetches a finished job's canonical table.
func (s *service) csv(id string) ([]byte, error) {
	resp, err := http.Get(s.base + "/jobs/" + id + "/results?format=csv")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("job %s csv: status %d: %v", id, resp.StatusCode, err)
	}
	return body, nil
}

func (s *service) healthz() (sweepd.Health, error) {
	var h sweepd.Health
	resp, err := http.Get(s.base + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return h, fmt.Errorf("healthz: %w", err)
	}
	return h, nil
}

// supervisorProbe runs cases through an in-process sweepd.Supervisor with
// one subprocess worker, each right after the same case ran in-process
// through cdf.RunContext. RunCase's extra time over RunContext is the
// worker JSON round trip plus the cache write and fsync'd journal record;
// the first case's extra beyond that is the worker spawn.
func (b *bench) supervisorProbe(parent int, cases []simCase) error {
	dir := filepath.Join(b.workDir, "supervisor")
	defer os.RemoveAll(dir)
	st, err := sweepstore.Open(dir, false)
	if err != nil {
		return err
	}
	defer st.Close()
	sup, err := sweepd.NewSupervisor(sweepd.SupervisorConfig{Cmd: []string{filepath.Join(b.binDir, "cdfsim"), "-worker"},
		Workers: 1, Store: st, Stderr: io.Discard})
	if err != nil {
		return err
	}
	defer waitChildrenGone("cdfsim")
	defer sup.Close()
	ctx := context.Background()
	var first time.Duration
	var extra []time.Duration
	for i, c := range cases {
		t0 := time.Now()
		res, err := cdf.RunContext(ctx, c.bench, c.opt)
		inproc := time.Since(t0)
		checkResult(b, c, res, err)
		var sres cdf.Result
		var hit bool
		d := timed(b.tr, "sweepd.Supervisor.RunCase", parent, c.label, func() { sres, hit, err = sup.RunCase(ctx, c.bench, c.opt) })
		if err == nil && hit {
			err = errors.New("served from an empty cache")
		}
		checkResult(b, c, sres, err)
		if digest([]digestEntry{{c.label, sres.Metrics}}) != digest([]digestEntry{{c.label, res.Metrics}}) {
			b.problem("%s: the worker's result differs from the in-process one", c.label)
		}
		if i == 0 {
			first = d - inproc
		} else {
			extra = append(extra, d-inproc)
		}
	}
	over := durMedian(extra)
	b.set("sweepd.roundtrip_overhead_ms", over*1e3)
	b.set("sweepd.spawn_ms", (first.Seconds()-over)*1e3)
	return st.Close()
}
