package main

import (
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// hostMeta is carried by every result file: numbers from two hosts, or
// from one host at two clock speeds, are not comparable, and this is how a
// reader finds out.
type hostMeta struct {
	NumCPU     int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`            // as found; reachserve's is never set, it follows the CPUs it is given
	ClientCPUs []int   `json:"client_cpus,omitempty"` // the load generator's own, where the CPUs were split
	ServerCPUs []int   `json:"server_cpus,omitempty"` // reachserve's
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	KeepAwake  bool    `json:"keep_awake"`     // idle-class spinners held the CPUs out of halt (keepawake.go)
	CalibNs    float64 `json:"calib_ns"`       // calibration loop before the workload
	CalibEndNs float64 `json:"calib_after_ns"` // and after it
	CalibDrift bool    `json:"calib_drift"`    // the two differ by more than 10 %: do not trust the run
}

func newHostMeta(keepAwake bool) hostMeta {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return hostMeta{
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     strings.TrimSpace(string(kernel)),
		KeepAwake:  keepAwake,
		CalibNs:    calibrate(),
	}
}

func (h *hostMeta) finish() {
	h.CalibEndNs = calibrate()
	d := h.CalibEndNs/h.CalibNs - 1
	h.CalibDrift = d > 0.10 || d < -0.10
}

var calibSink uint64

// calibrate times a fixed 2²⁶-step splitmix64 chain: pure register
// arithmetic, so it moves only when the host's clock speed or CPU share
// does.
func calibrate() float64 {
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < 1<<26; i++ {
		x = mix64(x)
	}
	calibSink = x
	return float64(time.Since(t0).Nanoseconds())
}

// selfCPU returns the CPU seconds this process has used so far.
func selfCPU() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
