package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// serveBin is the reachserve binary the lifecycle tests spawn, built once
// from the repository the benchmark lives in.
var serveBin string

func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == "keepawake" {
		keepAwakeMain() // startKeepAwake re-executes this binary, as it does reachload
		return
	}
	dir, err := os.MkdirTemp("", "reachload-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	serveBin = filepath.Join(dir, "reachserve")
	build := exec.Command("go", "build", "-o", serveBin, "./cmd/reachserve")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building reachserve: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func writeTinyGraph(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "tiny.txt")
	if err := os.WriteFile(path, []byte("0 1\n1 2\n3 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// alive reports whether pid still names a process (a reaped child does not).
func alive(pid int) bool { return syscall.Kill(pid, 0) == nil }

// TestChildLifecycle: port 0 plus -addrfile yields a dialable address,
// the server answers, SIGTERM drains to exit code 0, stderr is clean.
func TestChildLifecycle(t *testing.T) {
	dir := t.TempDir()
	c, err := startChild(serveBin, dir, "serve", nil, "-graph", writeTinyGraph(t, dir), "-index", "bfl")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(c.addr, "127.0.0.1:") || strings.HasSuffix(c.addr, ":0") || c.bootS <= 0 {
		t.Errorf("addr %q bootS %v: want a bound loopback port and a positive boot time", c.addr, c.bootS)
	}
	conn := newConn(c.addr)
	defer conn.close()
	for _, q := range []struct {
		s, t uint32
		want bool
	}{{0, 2, true}, {0, 4, false}} {
		got, err := conn.reach(reachTarget(nil, q.s, q.t))
		if err != nil || got != q.want {
			t.Errorf("reach(%d,%d) = %v, %v; want %v", q.s, q.t, got, err, q.want)
		}
	}
	m, err := c.scrape()
	if err != nil || m["reach_server_accepted_total"] != 2 {
		t.Errorf("scrape: accepted = %v, %v; want 2", m["reach_server_accepted_total"], err)
	}
	st, err := fetchStats(c.addr)
	if err != nil || st.Graph.Vertices != 5 || st.bytesPerVertex() <= 0 {
		t.Errorf("stats = %+v, %v", st, err)
	}
	pid := c.cmd.Process.Pid
	if err := c.terminate(); err != nil {
		t.Errorf("SIGTERM drain: %v", err)
	}
	if alive(pid) {
		t.Error("child still alive after terminate")
	}
	if rss := c.peakRSSMB(); rss <= 0 {
		t.Errorf("peak RSS %v MB, want a positive figure from the reaped child", rss)
	}
	if line, err := stderrFault(c.stderr); err != nil || line != "" {
		t.Errorf("stderr fault %q, %v; want a clean log", line, err)
	}
}

// TestChildFailureLeavesNoOrphan: a child that cannot come up is reported
// with the tail of its stderr, and is reaped before startChild returns.
func TestChildFailureLeavesNoOrphan(t *testing.T) {
	dir := t.TempDir()
	start := time.Now()
	_, err := startChild(serveBin, dir, "bad", nil, "-graph", filepath.Join(dir, "no-such-graph.txt"), "-index", "bfl")
	if err == nil {
		t.Fatal("startChild succeeded on a missing graph file")
	}
	if !strings.Contains(err.Error(), "exited before it was ready") || !strings.Contains(err.Error(), "no-such-graph") {
		t.Errorf("error does not say what happened: %v", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Errorf("failure took %v to report", time.Since(start))
	}
}

// TestKeepAwakeLifecycle: the spinners come up as one idle-class thread per
// CPU, and stop leaves no process behind.
func TestKeepAwakeLifecycle(t *testing.T) {
	k := startKeepAwake()
	if k == nil {
		if runtime.GOOS == "linux" {
			t.Fatal("no spinners on linux")
		}
		t.Skip("no SCHED_IDLE class on this system")
	}
	pid := k.cmd.Process.Pid
	idle := 0
	stats, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/stat", pid))
	for _, p := range stats {
		b, _ := os.ReadFile(p)
		// Fields after the parenthesised command name; policy is field 41 of the line.
		f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
		if len(f) > 38 && f[38] == "5" {
			idle++
		}
	}
	if cpus, _ := allowedCPUs(); idle != len(cpus) {
		t.Errorf("%d SCHED_IDLE threads on CPUs %v", idle, cpus)
	}
	k.stop()
	if alive(pid) {
		t.Error("spinners still alive after stop")
	}
}

// TestSplitCPUs: while the CPUs are split a spawned server's threads may
// run on every CPU but the generator's, and undo gives the generator all
// of them back.
func TestSplitCPUs(t *testing.T) {
	cpus, err := allowedCPUs()
	if err != nil || len(cpus) < 2 {
		t.Skip("needs CPU affinity and two CPUs")
	}
	procs := runtime.GOMAXPROCS(0)
	rc := &runCtx{bin: serveBin, dir: t.TempDir()}
	defer rc.killChildren()
	undo := rc.splitCPUs()
	mine, _ := allowedCPUs()
	c, err := rc.spawn("serve", "-graph", writeTinyGraph(t, rc.dir), "-index", "bfl")
	undo()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mine, cpus[:1]) || !reflect.DeepEqual(rc.split, [2][]int{cpus[:1], cpus[1:]}) {
		t.Errorf("generator ran on %v, recorded %v; want %v and the rest", mine, rc.split, cpus[:1])
	}
	tasks, _ := os.ReadDir(fmt.Sprintf("/proc/%d/task", c.cmd.Process.Pid))
	for _, task := range tasks {
		tid, _ := strconv.Atoi(task.Name())
		if got, err := affinityOf(tid); err == nil && !reflect.DeepEqual(got, cpus[1:]) {
			t.Errorf("server thread %d may run on %v, want %v", tid, got, cpus[1:])
		}
	}
	if len(tasks) == 0 {
		t.Error("no server threads found")
	}
	if back, _ := allowedCPUs(); !reflect.DeepEqual(back, cpus) || runtime.GOMAXPROCS(0) != procs || rc.serverCPUs != nil {
		t.Errorf("after undo: CPUs %v GOMAXPROCS %d serverCPUs %v; want %v, %d, nil", back, runtime.GOMAXPROCS(0), rc.serverCPUs, cpus, procs)
	}
}

func TestStderrFaultFindsErrors(t *testing.T) {
	dir := t.TempDir()
	for name, tc := range map[string]struct {
		log, want string
	}{
		"clean":  {"time=x level=INFO msg=request path=/v1/reach\ntime=x level=WARN msg=\"slow request\"\n", ""},
		"error":  {"time=x level=INFO msg=ok\ntime=x level=ERROR msg=boom\n", "level=ERROR msg=boom"},
		"panic":  {"panic: runtime error: index out of range\n\ngoroutine 1 [running]:\n", "panic: runtime error"},
		"thrown": {"fatal error: concurrent map writes\n", "fatal error:"},
	} {
		path := filepath.Join(dir, name)
		os.WriteFile(path, []byte(tc.log), 0o644)
		got, err := stderrFault(path)
		if err != nil || (tc.want == "") != (got == "") || !strings.Contains(got, tc.want) {
			t.Errorf("%s: stderrFault = %q, %v; want a line containing %q", name, got, err, tc.want)
		}
	}
}

// TestRunOneCleansUp runs a whole (shortened) workload through runOne and
// checks what must hold afterwards: a correct result on file with every
// end-to-end metric and host metadata, the run's temp dir gone, and no
// child left alive.
func TestRunOneCleansUp(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns reachserve three times on a 100k-vertex graph")
	}
	work := t.TempDir()
	var batch workload
	for _, w := range workloadList {
		if w.name == "batch-http" {
			batch = w
		}
	}
	rep, err := runOne(batch, 3, 0.5, false, serveBin, work)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < batchPairs {
		t.Errorf("correct=%v attempted=%d failed=%d faults=%v", rep.Correct, rep.Attempted, rep.Failed, rep.Faults)
	}
	for _, m := range endToEnd {
		if v, ok := rep.EndToEnd[m.name]; !ok || v <= 0 {
			t.Errorf("end-to-end metric %s = %v, want a positive value", m.name, v)
		}
	}
	if len(rep.SetupS) != coldBoots {
		t.Errorf("setup_s from %d boots, want %d", len(rep.SetupS), coldBoots)
	}
	if h := rep.Host; h.NumCPU < 1 || h.GoMaxProcs < 1 || h.GoVersion == "" || h.CalibNs <= 0 || h.CalibEndNs <= 0 {
		t.Errorf("host metadata incomplete: %+v", h)
	}
	if runtime.GOOS == "linux" && !rep.Host.KeepAwake {
		t.Error("the run had no keep-awake spinners")
	}
	if rep.Conns > rep.Host.NumCPU {
		t.Errorf("%d connections on %d CPUs: the load must come from at most nproc connections", rep.Conns, rep.Host.NumCPU)
	}
	if _, err := os.Stat(filepath.Join(work, "results", "batch-http-seed3-trace0.json")); err != nil {
		t.Errorf("result file: %v", err)
	}
	left, _ := os.ReadDir(filepath.Join(work, "tmp"))
	if len(left) != 0 {
		t.Errorf("temp dir not removed: %v", left)
	}
	procs, _ := filepath.Glob("/proc/[0-9]*/cmdline")
	for _, p := range procs {
		cmd, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		stat, _ := os.ReadFile(filepath.Dir(p) + "/stat")
		mine := strings.Contains(string(stat), fmt.Sprintf(") S %d ", os.Getpid())) || strings.Contains(string(stat), fmt.Sprintf(") R %d ", os.Getpid()))
		if strings.Contains(string(cmd), work) || (mine && strings.HasSuffix(string(cmd), "keepawake\x00")) {
			t.Errorf("a child outlived the run: %s", strings.ReplaceAll(string(cmd), "\x00", " "))
		}
	}
}
