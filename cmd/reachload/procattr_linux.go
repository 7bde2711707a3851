package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// childProcAttr asks the kernel to SIGKILL the child if the load generator
// dies without running its clean-up (itself killed, or crashed), so a
// failed run never leaves a server behind.
func childProcAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// cpuMask is the kernel's cpu_set_t: one bit per CPU, 1024 of them.
type cpuMask [16]uint64

// allowedCPUs lists the CPUs the calling thread may run on.
func allowedCPUs() ([]int, error) { return affinityOf(0) }

// affinityOf lists the CPUs thread tid may run on.
func affinityOf(tid int) ([]int, error) {
	var mask cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", e)
	}
	var cpus []int
	for i := 0; i < len(mask)*64; i++ {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus, nil
}

// setAffinity confines thread tid (0: the calling thread) to cpus.
func setAffinity(tid int, cpus []int) error {
	var mask cpuMask
	for _, c := range cpus {
		mask[c/64] |= 1 << (c % 64)
	}
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		return fmt.Errorf("sched_setaffinity(%v): %w", cpus, e)
	}
	return nil
}

// pinProcess confines every thread of this process, and so every thread
// they start later, to cpus. It goes over /proc/self/task until a pass
// finds no thread it has not seen, in case one was started meanwhile.
func pinProcess(cpus []int) error {
	seen := map[string]bool{}
	for fresh := true; fresh; {
		fresh = false
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil || seen[t.Name()] {
				continue
			}
			seen[t.Name()], fresh = true, true
			if err := setAffinity(tid, cpus); err != nil && !errors.Is(err, syscall.ESRCH) {
				return err
			}
		}
	}
	return nil
}

// startOn starts cmd confined to cpus (nil: wherever this process may
// run). A child inherits the affinity of the thread that forks it, so the
// calling goroutine's thread takes cpus for the length of the fork; the
// child's Go runtime then counts only those CPUs.
func startOn(cmd *exec.Cmd, cpus []int) error {
	if cpus == nil {
		return cmd.Start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	mine, err := allowedCPUs()
	if err != nil {
		return err
	}
	if err := setAffinity(0, cpus); err != nil {
		return err
	}
	defer setAffinity(0, mine)
	return cmd.Start()
}

// idleClassOn moves the calling thread into SCHED_IDLE and pins it to cpu.
// Lowering one's own priority needs no privilege.
func idleClassOn(cpu int) error {
	const schedIdle = 5
	var prio int32 // struct sched_param{0}, the only value SCHED_IDLE takes
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&prio))); e != 0 {
		return fmt.Errorf("sched_setscheduler(SCHED_IDLE): %w", e)
	}
	return setAffinity(0, []int{cpu})
}
