package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sync"
)

// keepAwake holds the box's CPUs out of their idle state while a run
// measures. The reference box is a 2-vCPU guest of a shared host: a vCPU
// that halts is descheduled by the host and takes hundreds of microseconds
// to milliseconds to come back, so a closed-loop request, which idles the
// client's vCPU and then the server's, measured the host's scheduler: in a
// busy hour point-http fell from 16.7k to 2.2k req/s and a cold boot rose
// from 2.4 s to 9-95 s, and rose and fell with the neighbours. One spinner
// per CPU in the kernel's SCHED_IDLE class, which runs only when the CPU
// would otherwise halt and is preempted the moment anything else wakes,
// is the guest's equivalent of booting with idle=poll. The spinners are a
// child process of their own: inside this one they would each hold one of
// the Go scheduler's Ps.
type keepAwake struct {
	cmd   *exec.Cmd
	stdin io.Closer
}

// startKeepAwake starts the spinners, or returns nil where the kernel has
// no SCHED_IDLE class to give them; a run without them is still correct,
// only less steady, and its result file says so.
func startKeepAwake() *keepAwake {
	self, err := os.Executable()
	if err != nil {
		return nil
	}
	cmd := exec.Command(self, "keepawake")
	cmd.SysProcAttr = childProcAttr()
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil
	}
	if err := cmd.Start(); err != nil {
		return nil
	}
	k := &keepAwake{cmd: cmd, stdin: stdin}
	if line, _ := bufio.NewReader(stdout).ReadString('\n'); line != "spinning\n" {
		k.stop()
		return nil
	}
	return k
}

// stop ends the spinners and reaps them.
func (k *keepAwake) stop() {
	if k == nil {
		return
	}
	k.stdin.Close()
	k.cmd.Process.Kill()
	k.cmd.Wait()
}

// keepAwakeMain is the child: it pins one spinner to every CPU it may run
// on, says "spinning" once all of them are in the idle class, and lives
// until its standard input closes, which the parent's death does too.
func keepAwakeMain() {
	cpus, err := allowedCPUs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "reachload keepawake:", err)
		os.Exit(3)
	}
	runtime.GOMAXPROCS(len(cpus) + 1)
	var ready sync.WaitGroup
	for _, cpu := range cpus {
		ready.Add(1)
		go func(cpu int) {
			runtime.LockOSThread()
			if err := idleClassOn(cpu); err != nil {
				fmt.Fprintln(os.Stderr, "reachload keepawake:", err)
				os.Exit(3)
			}
			ready.Done()
			for {
			}
		}(cpu)
	}
	ready.Wait()
	fmt.Println("spinning")
	io.Copy(io.Discard, os.Stdin)
}
