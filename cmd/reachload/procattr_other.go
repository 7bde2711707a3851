//go:build !linux

package main

import (
	"errors"
	"os/exec"
	"syscall"
)

func childProcAttr() *syscall.SysProcAttr { return nil }

var errNoAffinity = errors.New("no CPU affinity or SCHED_IDLE class on this system")

func allowedCPUs() ([]int, error)          { return nil, errNoAffinity }
func idleClassOn(int) error                { return errNoAffinity }
func pinProcess([]int) error               { return errNoAffinity }
func startOn(cmd *exec.Cmd, _ []int) error { return cmd.Start() }
