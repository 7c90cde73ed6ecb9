package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a Linux cpu_set_t.
type cpuMask [16]uint64

func (m *cpuMask) set(cpu int)      { m[cpu/64] |= 1 << (cpu % 64) }
func (m *cpuMask) has(cpu int) bool { return m[cpu/64]&(1<<(cpu%64)) != 0 }

func getAffinity(tid int) (cpuMask, error) {
	var m cpuMask
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return m, e
	}
	return m, nil
}

func setAffinity(tid int, m cpuMask) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return e
	}
	return nil
}

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() ([]int, error) {
	m, err := getAffinity(0)
	if err != nil {
		return nil, err
	}
	var cpus []int
	for c := range len(m) * 64 {
		if m.has(c) {
			cpus = append(cpus, c)
		}
	}
	return cpus, nil
}

// pinProcess confines every thread of this process to one CPU; threads
// created later inherit the mask from the thread that creates them.
func pinProcess(cpu int) error {
	var m cpuMask
	m.set(cpu)
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		// A thread may exit between the listing and the call.
		if err := setAffinity(tid, m); err != nil && err != syscall.ESRCH {
			return fmt.Errorf("pinning thread %d: %w", tid, err)
		}
	}
	return nil
}

// startOnCPU starts cmd confined to cpu (cpu < 0: unconfined). The child
// inherits the affinity of the thread that forks it, so the fork runs on
// a locked thread whose mask is switched for the call.
func startOnCPU(cmd *exec.Cmd, cpu int) error {
	if cpu < 0 {
		return cmd.Start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	old, err := getAffinity(0)
	if err != nil {
		return err
	}
	var m cpuMask
	m.set(cpu)
	if err := setAffinity(0, m); err != nil {
		return err
	}
	err = cmd.Start()
	if rerr := setAffinity(0, old); err == nil {
		err = rerr
	}
	return err
}
