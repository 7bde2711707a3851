package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	bootTimeout  = 120 * time.Second
	drainTimeout = 40 * time.Second
)

// child is one reachserve process under test. It always listens on port 0
// and reports the bound address through -addrfile; its stderr goes to a
// file in the run's temp dir so the run can be failed on logged errors.
type child struct {
	cmd    *exec.Cmd
	addr   string
	stderr string        // path of the stderr file
	bootS  float64       // spawn → first 200 on /readyz
	done   chan struct{} // closed once Wait has returned
	err    error         // Wait's result, valid after done
}

// startChild spawns bin on cpus (nil: anywhere) with the benchmark's fixed
// flags plus extra and waits until /readyz answers 200. On any failure the process is killed
// and reaped before returning: no orphan outlives an error.
func startChild(bin, dir, tag string, cpus []int, extra ...string) (*child, error) {
	addrFile := filepath.Join(dir, tag+".addr")
	os.Remove(addrFile)
	logf, err := os.Create(filepath.Join(dir, tag+".stderr"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	args := append([]string{"-addr", "127.0.0.1:0", "-addrfile", addrFile}, extra...)
	c := &child{cmd: exec.Command(bin, args...), stderr: logf.Name(), done: make(chan struct{})}
	c.cmd.Stderr = logf
	c.cmd.SysProcAttr = childProcAttr()
	start := time.Now()
	if err := startOn(c.cmd, cpus); err != nil {
		return nil, err
	}
	go func() {
		c.err = c.cmd.Wait()
		close(c.done)
	}()
	if err := c.awaitReady(addrFile, start); err != nil {
		c.kill()
		return nil, fmt.Errorf("%s: %w\n%s", tag, err, tail(c.stderr, 2048))
	}
	return c, nil
}

func (c *child) awaitReady(addrFile string, start time.Time) error {
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	deadline := time.After(bootTimeout)
	for {
		select {
		case <-c.done:
			return fmt.Errorf("exited before it was ready: %v", c.err)
		case <-deadline:
			return errors.New("not ready within " + bootTimeout.String())
		case <-tick.C:
		}
		if c.addr == "" {
			b, err := os.ReadFile(addrFile)
			if err != nil || !bytes.HasSuffix(b, []byte("\n")) {
				continue
			}
			c.addr = strings.TrimSpace(string(b))
		}
		if status, _, err := get(c.addr, "/readyz"); err == nil && status == 200 {
			c.bootS = time.Since(start).Seconds()
			return nil
		}
	}
}

// terminate sends SIGTERM and requires a clean drain: exit code 0 within
// drainTimeout.
func (c *child) terminate() error {
	c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(drainTimeout):
		c.kill()
		return errors.New("child did not drain after SIGTERM")
	}
	if c.err != nil {
		return fmt.Errorf("child exit after SIGTERM: %w\n%s", c.err, tail(c.stderr, 2048))
	}
	return nil
}

// kill sends SIGKILL and reaps the process.
func (c *child) kill() {
	c.cmd.Process.Kill()
	<-c.done
}

// peakRSSMB reports the reaped child's peak resident set in MB.
func (c *child) peakRSSMB() float64 {
	ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// stderrFault returns the first line of the child's stderr that records a
// logged error, a panic or a runtime crash, or "" when it is clean.
func stderrFault(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Bytes()
		for _, mark := range [][]byte{[]byte("level=ERROR"), []byte("panic"), []byte("fatal error:")} {
			if bytes.Contains(line, mark) {
				return string(line), nil
			}
		}
	}
	return "", sc.Err()
}

func tail(path string, n int) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	if len(b) > n {
		b = b[len(b)-n:]
	}
	return string(b)
}

// scrape fetches the child's Prometheus exposition into a map keyed by
// the sample's full name, labels included, e.g.
// `reach_index_size_bytes{index="BFL",section="labels"}`.
func (c *child) scrape() (map[string]float64, error) {
	status, body, err := get(c.addr, "/metrics?format=prometheus")
	if err != nil {
		return nil, err
	}
	if status != 200 {
		return nil, fmt.Errorf("/metrics: status %d", status)
	}
	return parseProm(body), nil
}

func parseProm(body []byte) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range bytes.Split(body, []byte("\n")) {
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		i := bytes.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(string(line[i+1:]), 64); err == nil {
			out[string(line[:i])] = v
		}
	}
	return out
}
